package granting

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/faults"
	"entitlement/internal/hose"
	"entitlement/internal/recordlog"
	"entitlement/internal/topology"
)

// errCrashed is what every journal file operation returns once the test has
// declared the process dead.
var errCrashed = errors.New("crashed")

// trackedFile is a generation file that remembers how much of it a
// completed Sync covers, and can be told to fail.
type trackedFile struct {
	*os.File
	w        *walFiles
	mu       sync.Mutex
	written  int64
	synced   int64
	failSync error
}

func (f *trackedFile) Write(p []byte) (int, error) {
	if f.w.crashed.Load() {
		return 0, errCrashed
	}
	n, err := f.File.Write(p)
	f.mu.Lock()
	f.written += int64(n)
	f.mu.Unlock()
	if f.w.crashAfter.Add(-1) == 0 {
		f.w.crashed.Store(true) // this write landed; its sync never will
	}
	return n, err
}

func (f *trackedFile) Sync() error {
	if hook := f.w.onSync.Load(); hook != nil {
		(*hook)()
	}
	f.mu.Lock()
	covered, fail := f.written, f.failSync
	f.mu.Unlock()
	if f.w.crashed.Load() {
		fail = errCrashed
	}
	if fail != nil {
		return fail
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.mu.Lock()
	f.synced = max(f.synced, covered)
	f.mu.Unlock()
	return nil
}

// walFiles is a WALOptions.create that hands out trackedFiles, keyed by
// path; hook, when set, may veto or doctor a file first. Once crashed
// is set nothing reaches the disk any more and every operation fails: the
// directory is what a process that died at that instant left behind, give
// or take the bytes no completed sync covers.
type walFiles struct {
	mu      sync.Mutex
	files   map[string]*trackedFile
	hook    func(path string, f *trackedFile) error
	crashed atomic.Bool
	// crashAfter, set to n > 0, crashes right after the n-th write from now.
	crashAfter atomic.Int64
	// onSync, when set, runs at the start of every Sync.
	onSync atomic.Pointer[func()]
}

func newWALFiles() *walFiles { return &walFiles{files: make(map[string]*trackedFile)} }

func (w *walFiles) create(path string) (recordlog.File, error) {
	if w.crashed.Load() {
		return nil, errCrashed
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	tf := &trackedFile{File: f, w: w}
	w.mu.Lock()
	hook := w.hook
	w.files[path] = tf
	w.mu.Unlock()
	if hook != nil {
		if err := hook(path, tf); err != nil {
			f.Close()
			os.Remove(path)
			return nil, err
		}
	}
	return tf, nil
}

// onCreate installs (or, with nil, removes) the hook.
func (w *walFiles) onCreate(fn func(path string, f *trackedFile) error) {
	w.mu.Lock()
	w.hook = fn
	w.mu.Unlock()
}

// synced reports how many bytes of path a completed sync covers.
func (w *walFiles) synced(path string) int64 {
	w.mu.Lock()
	f := w.files[path]
	w.mu.Unlock()
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.synced
}

// eventually polls cond for up to two seconds.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// fourHose is a request of the shape the end-to-end benchmark asks: home
// region plus one peer, egress and ingress. Its decision is ~1.5 kB of JSON.
func fourHose(i int) Request {
	peers := []topology.Region{"B", "C", "D", "E"}
	r := Request{NPG: contract.NPG(fmt.Sprintf("svc%d", i)), StartUnix: testStart.Unix() + int64(i)}
	for _, region := range []topology.Region{"A", peers[i%len(peers)]} {
		for _, dir := range []contract.Direction{contract.Egress, contract.Ingress} {
			r.Hoses = append(r.Hoses, hose.Request{
				Class: contract.C2Low, Region: region, Direction: dir, Rate: float64(5+i%7) * 1e9,
			})
		}
	}
	return r
}

// submitWait decides one request through the service.
func submitWait(t testing.TB, svc *Service, req Request) (string, *Decision) {
	t.Helper()
	id, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Wait(id, 2*time.Minute)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return id, d
}

// fillRing decides memoizable four-hose requests until the retention ring
// is full, the regime a long-running grantd settles into.
func fillRing(t testing.TB, svc *Service, pool []Request) {
	t.Helper()
	for i := 0; i < retain; i++ {
		submitWait(t, svc, pool[i%len(pool)])
	}
}

func fourHosePool() []Request {
	pool := make([]Request, 8)
	for i := range pool {
		pool[i] = fourHose(i)
	}
	return pool
}

// TestWALEncoderBytesAndReuse pins the framing: the reusable buffer holds
// exactly header + json.Marshal(record), record after record, and a second
// snapshot-sized encode costs no second record-sized allocation.
func TestWALEncoderBytesAndReuse(t *testing.T) {
	recs := walTestRecords()
	recs = append(recs, walRecord{T: "sub", Sub: &walSub{IDs: []string{"g-<&>"}, Reqs: testRequests()[:1]}})
	var enc recordlog.Encoder
	for i := range recs {
		got, err := enc.Encode(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, recordlog.HeaderSize, recordlog.HeaderSize+len(body))
		binary.BigEndian.PutUint32(want[0:4], uint32(len(body)))
		binary.BigEndian.PutUint32(want[4:8], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		want = append(want, body...)
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d framed differently:\nwant %q\ngot  %q", i, want, got)
		}
	}

	ck := &walCkpt{Seq: 1024}
	for i := 0; i < 1024; i++ {
		ck.Decided = append(ck.Decided, walDecided{ID: fmt.Sprintf("g-%d", i), Dec: Decision{
			ID: fmt.Sprintf("g-%d", i), NPG: "Web", Status: StatusRejected, Err: string(bytes.Repeat([]byte("x"), 1000)),
		}})
	}
	snap := &walRecord{T: "ckpt", Ckpt: ck}
	frame, err := enc.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		return
	}
	size := uint64(len(frame))
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := enc.Encode(snap); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > size/2 {
		t.Errorf("re-encoding a %d-byte snapshot allocates %d bytes a time; the buffer is not reused", size, per)
	}
}

// TestJournalFailedRotation pins the failed-checkpoint contract: whichever
// step of writing the next generation fails, the journal keeps appending to
// the current one, nothing of the failed file is left behind, the failure is
// counted, everything journaled afterwards is recovered, and the rotation is
// retried (and succeeds) once the fault is gone.
func TestJournalFailedRotation(t *testing.T) {
	boom := errors.New("injected fault")
	for _, tc := range []struct {
		name   string
		squats bool // the fault is a directory entry that stays in the way
		block  func(t *testing.T, w *walFiles, next string) (unblock func())
	}{
		{"create", true, func(t *testing.T, w *walFiles, next string) func() {
			// A directory squatting on the next generation's name.
			if err := os.Mkdir(next, 0o755); err != nil {
				t.Fatal(err)
			}
			return func() { os.Remove(next) }
		}},
		{"write", false, func(t *testing.T, w *walFiles, next string) func() {
			w.onCreate(func(path string, f *trackedFile) error {
				// Read-only handle: the snapshot write fails.
				f.File.Close()
				ro, err := os.Open(path)
				if err != nil {
					return err
				}
				f.File = ro
				return nil
			})
			return func() { w.onCreate(nil) }
		}},
		{"sync", false, func(t *testing.T, w *walFiles, next string) func() {
			w.onCreate(func(path string, f *trackedFile) error { f.failSync = boom; return nil })
			return func() { w.onCreate(nil) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWALFiles()
			dir := t.TempDir()
			opts := crashOptions(dir)
			opts.WAL = WALOptions{Dir: dir, Fsync: FsyncAlways, CheckpointBytes: 2048, create: w.create}
			svc, err := OpenService(topology.FigureSix(), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			gens, err := walNames.List(dir)
			if err != nil || len(gens) != 1 {
				t.Fatalf("generations after open: %v (%v), want one", gens, err)
			}
			current := walNames.Path(dir, gens[0])
			next := walNames.Path(dir, gens[0]+1)
			unblock := tc.block(t, w, next)

			served := make(map[string][]byte)
			decide := func(i int) {
				id, d := submitWait(t, svc, approvable(i%5))
				served[id], _ = json.Marshal(d)
			}
			errs, ckpts := mJournalErrors.Value(), mJournalCheckpoints.Value()
			for i := 0; mJournalErrors.Value() == errs; i++ {
				if i > 200 {
					t.Fatal("no rotation was ever attempted")
				}
				decide(i)
			}
			if got := mJournalCheckpoints.Value(); got != ckpts {
				t.Fatalf("a failed rotation counted as %d checkpoints", got-ckpts)
			}
			// Everything journaled after the failure still lands in the
			// generation replay reads.
			for i := 0; i < 3; i++ {
				decide(i)
			}
			// Waiters are released before the decider rotates, so a retry
			// may be in flight: its file must be gone soon, not now.
			if !tc.squats && !eventually(func() bool {
				gens, _ := walNames.List(dir)
				return len(gens) == 1 && walNames.Path(dir, gens[0]) == current
			}) {
				gens, _ := walNames.List(dir)
				t.Fatalf("generations after failed rotation: %v, want only %s", gens, current)
			}
			st, err := ReplayWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			recovered := make(map[string][]byte)
			for _, d := range st.Decided {
				recovered[d.ID], _ = json.Marshal(&d.Dec)
			}
			for id, want := range served {
				if !bytes.Equal(recovered[id], want) {
					t.Errorf("%s journaled around the failed rotation is not recovered:\nwant %s\ngot  %s", id, want, recovered[id])
				}
			}

			// Fault gone: the next trigger rotates, and nothing is lost.
			unblock()
			for i := 0; mJournalCheckpoints.Value() == ckpts; i++ {
				if i > 200 {
					t.Fatal("rotation never retried after the fault cleared")
				}
				decide(i)
			}
			svc.Kill()
			svc2, err := OpenService(topology.FigureSix(), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Close()
			for id, want := range served {
				state, d := svc2.Status(id)
				got, _ := json.Marshal(d)
				if state != "decided" || !bytes.Equal(got, want) {
					t.Errorf("%s after restart: %s %s, want %s", id, state, got, want)
				}
			}
		})
	}
}

// TestJournalAmortisedAtDefaults pins the checkpoint amortisation at
// cmd/grantd's journal defaults (a 1024-decision retention ring,
// -checkpoint-bytes 1 MiB, -fsync batch): with the retention ring full of
// four-hose decisions the snapshot alone is larger than CheckpointBytes, and
// the journal must still cost about what its records cost.
func TestJournalAmortisedAtDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("journals 1200+ decisions with fsync")
	}
	dir := t.TempDir()
	opts := crashOptions(dir)
	opts.WAL = WALOptions{Dir: dir} // every journal knob at its default
	svc, err := OpenService(topology.FigureSix(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := fourHosePool()
	fillRing(t, svc, pool)

	const more = 200
	ckpts, bytesBefore, hits := mJournalCheckpoints.Value(), mJournalBytes.Value(), svc.Stats().MemoHits
	for i := 0; i < more; i++ {
		submitWait(t, svc, pool[i%len(pool)])
	}
	if got := svc.Stats().MemoHits - hits; got != more {
		t.Fatalf("%d of %d decisions were memoized", got, more)
	}
	if got := mJournalCheckpoints.Value() - ckpts; got > 2 {
		t.Errorf("%d checkpoints in %d decisions, want at most 2", got, more)
	}
	if per := (mJournalBytes.Value() - bytesBefore) / more; per >= 16<<10 {
		t.Errorf("%d journal bytes per decision, want under 16 KiB", per)
	}
	svc.Kill()

	// What a restart has to read: at most the snapshot, a snapshot's worth
	// of log (or CheckpointBytes, whichever is larger), and a record.
	gens, err := walNames.List(dir)
	if err != nil || len(gens) != 1 {
		t.Fatalf("generations after kill: %v (%v), want one", gens, err)
	}
	data, err := os.ReadFile(walNames.Path(dir, gens[0]))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := int64(recordlog.HeaderSize + binary.BigEndian.Uint32(data[0:4]))
	if snapshot <= opts.WAL.withDefaults().CheckpointBytes {
		t.Fatalf("snapshot is %d bytes: the ring is not in the regime this test pins", snapshot)
	}
	if limit := 2*snapshot + opts.WAL.withDefaults().CheckpointBytes; int64(len(data)) > limit {
		t.Errorf("restart replays %d bytes, want at most 2 x snapshot (%d) + CheckpointBytes = %d", len(data), snapshot, limit)
	}
}

// TestCrashRecoveryAcrossRotations is TestCrashRecoveryProperty moved to
// where the journal changes state: a few-KiB CheckpointBytes so every run
// rotates several times, FsyncBatch so what a caller observed is exactly
// what a sync covers, and concurrent submitters re-asking a small pool so
// submissions, decisions and rotations interleave. The crash lands wherever
// it lands — between a record's write and its sync, mid-rotation — and from
// that instant no journal operation reaches the disk; it then keeps a random
// amount of what no completed sync covers (faults.CrashTail on the un-synced
// tail). Across 50 seeds:
//
//   - no decision a caller observed before the crash is lost or altered,
//   - every id that survived replay is served byte-identically, and
//   - two recoveries of the same damaged journal agree byte for byte.
func TestCrashRecoveryAcrossRotations(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized crash-recovery property is not a -short test")
	}
	const runs = 50
	torn := 0
	for run := 0; run < runs; run++ {
		t.Run(fmt.Sprintf("run%02d", run), func(t *testing.T) {
			w := newWALFiles()
			rng := rand.New(rand.NewSource(0xBADC0DE + int64(run)))
			dir := t.TempDir()
			mine := crashOptions(dir)
			mine.WAL = WALOptions{Dir: dir, Fsync: FsyncBatch, CheckpointBytes: int64(2+rng.Intn(4)) << 10, create: w.create}
			svc, err := OpenService(topology.FigureSix(), nil, mine)
			if err != nil {
				t.Fatal(err)
			}
			pool := make([]Request, 6)
			for i := range pool {
				pool[i] = randRequest(rng)
			}

			var mu sync.Mutex
			observed := make(map[string][]byte)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 3; g++ {
				grng := rand.New(rand.NewSource(rng.Int63()))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						id, err := svc.Submit(pool[grng.Intn(len(pool))])
						if err != nil {
							return // killed
						}
						if grng.Intn(4) == 0 {
							continue // leave it in flight
						}
						d, err := svc.Wait(id, 100*time.Millisecond)
						if err != nil || w.crashed.Load() {
							// Killed mid-wait, or decided too late to say
							// the caller saw it before the crash.
							continue
						}
						j, _ := json.Marshal(d)
						mu.Lock()
						observed[id] = j
						mu.Unlock()
					}
				}()
			}
			// Let a few rotations go by, then crash.
			ckpts := mJournalCheckpoints.Value()
			want := int64(1 + rng.Intn(4))
			for deadline := time.Now().Add(5 * time.Second); mJournalCheckpoints.Value()-ckpts < want && time.Now().Before(deadline); {
				time.Sleep(200 * time.Microsecond)
			}
			w.crashAfter.Store(int64(1 + rng.Intn(8)))
			if !eventually(w.crashed.Load) {
				t.Fatal("the journal stopped writing before the crash point")
			}
			svc.Kill()
			close(stop)
			wg.Wait()

			gens, err := walNames.List(dir)
			if err != nil || len(gens) == 0 {
				t.Fatalf("no journal generations: %v", err)
			}
			last := walNames.Path(dir, gens[len(gens)-1])
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			desc := "nothing un-synced to lose"
			if unsynced := fi.Size() - w.synced(last); unsynced > 0 {
				torn++
				if desc, err = faults.CrashTail(last, rng, unsynced); err != nil {
					t.Fatal(err)
				}
			}

			w.crashed.Store(false) // reboot

			dir2 := copyDir(t, dir)
			stA, err := ReplayWAL(dir)
			if err != nil {
				t.Fatalf("replay after %s: %v", desc, err)
			}
			recovered := make(map[string][]byte, len(stA.Decided))
			for _, d := range stA.Decided {
				recovered[d.ID], _ = json.Marshal(&d.Dec)
			}
			// The retention ring is far larger than one run, so an observed
			// decision has nowhere to go but the journal.
			for id, want := range observed {
				if got, ok := recovered[id]; !ok {
					t.Errorf("observed decision %s lost in the crash (%s)", id, desc)
				} else if !bytes.Equal(got, want) {
					t.Errorf("observed decision %s altered by the crash (%s):\nwant %s\ngot  %s", id, desc, want, got)
				}
			}

			mine.WAL.Dir = dir
			svcA, err := OpenService(topology.FigureSix(), nil, mine)
			if err != nil {
				t.Fatalf("reopen A after %s: %v", desc, err)
			}
			defer svcA.Close()
			mine.WAL.Dir = dir2
			svcB, err := OpenService(topology.FigureSix(), nil, mine)
			if err != nil {
				t.Fatalf("reopen B after %s: %v", desc, err)
			}
			defer svcB.Close()
			known := make([]string, 0, len(stA.Decided))
			for _, d := range stA.Decided {
				known = append(known, d.ID)
			}
			for _, p := range stA.Pending {
				known = append(known, p.IDs...)
			}
			for _, id := range known {
				da, err := svcA.Wait(id, 2*time.Minute)
				if err != nil {
					t.Fatalf("recovery A wait %s (%s): %v", id, desc, err)
				}
				db, err := svcB.Wait(id, 2*time.Minute)
				if err != nil {
					t.Fatalf("recovery B wait %s (%s): %v", id, desc, err)
				}
				ja, _ := json.Marshal(da)
				jb, _ := json.Marshal(db)
				if !bytes.Equal(ja, jb) {
					t.Errorf("recoveries disagree on %s (%s):\nA %s\nB %s", id, desc, ja, jb)
				}
				if want, ok := recovered[id]; ok && !bytes.Equal(ja, want) {
					t.Errorf("journaled decision %s not served byte-identically (%s):\nwant %s\ngot  %s", id, desc, want, ja)
				}
			}
		})
	}
	t.Logf("%d of %d crashes had un-synced bytes to lose", torn, runs)
}

// TestGroupCommitSharesSyncs pins the commit cadence under FsyncBatch: four
// closed-loop submitters of memoized requests share one sync per commit slot
// instead of paying one each, and once the burst a quiet journal has saved up
// is spent, slots come no faster than commitInterval.
func TestGroupCommitSharesSyncs(t *testing.T) {
	dir := t.TempDir()
	opts := crashOptions(dir)
	opts.WAL = WALOptions{Dir: dir} // FsyncBatch, and no rotation in so few bytes
	svc, err := OpenService(topology.FigureSix(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const submitters, each = 4, 50
	for g := 0; g < submitters; g++ {
		submitWait(t, svc, approvable(g)) // fills the memo
	}
	syncs, start := mJournalFsyncs.Value(), time.Now()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := svc.Submit(approvable(g))
				if err == nil {
					_, err = svc.Wait(id, time.Minute)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed, syncs := time.Since(start), mJournalFsyncs.Value()-syncs
	if decisions := int64(submitters * each); 2*syncs > decisions {
		t.Errorf("%d syncs for %d decisions from %d concurrent submitters, want at most one in two", syncs, decisions, submitters)
	}
	if floor := time.Duration(syncs-1-commitBurst) * commitInterval; elapsed < floor {
		t.Errorf("%d commits in %v: past a burst of %d, slots came faster than one per %v", syncs, elapsed, commitBurst, commitInterval)
	}
	t.Logf("%d syncs for %d decisions in %v", syncs, submitters*each, elapsed)
}

// TestRotationKeepsStagedGroup holds the committer inside a sync while the
// decider stages another batch behind it, and has the rotation fall due right
// after that sync. The staged batch is neither queued nor decided, so the
// snapshot cannot carry it: the committer has to commit it into the old
// generation first. A crash right after its waiter is released must find it.
func TestRotationKeepsStagedGroup(t *testing.T) {
	w := newWALFiles()
	dir := t.TempDir()
	opts := crashOptions(dir)
	opts.WAL = WALOptions{Dir: dir, Fsync: FsyncBatch, CheckpointBytes: 1, create: w.create}
	svc, err := OpenService(topology.FigureSix(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// From the first rotation on every group's records outweigh the snapshot.
	ckpts := mJournalCheckpoints.Value()
	submitWait(t, svc, approvable(0))
	if !eventually(func() bool { return mJournalCheckpoints.Value() > ckpts }) {
		t.Fatal("the first commit did not rotate the journal")
	}

	inSync, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gate := func() {
		once.Do(func() {
			close(inSync)
			<-release
		})
	}
	w.onSync.Store(&gate)
	idB, err := svc.Submit(approvable(1))
	if err != nil {
		t.Fatal(err)
	}
	<-inSync // the committer is syncing B's group
	idC, err := svc.Submit(approvable(2))
	if err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(svc.staged) == 1
	}) {
		t.Fatal("C was never staged behind the sync")
	}
	ckpts = mJournalCheckpoints.Value()
	close(release)

	served := make(map[string][]byte)
	for _, id := range []string{idB, idC} {
		d, err := svc.Wait(id, time.Minute)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		served[id], _ = json.Marshal(d)
	}
	if mJournalCheckpoints.Value() == ckpts {
		t.Fatal("no rotation fell due behind the held sync: the test does not reach the case it pins")
	}
	w.crashed.Store(true)
	svc.Kill()

	st, err := ReplayWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered := make(map[string][]byte)
	for _, d := range st.Decided {
		recovered[d.ID], _ = json.Marshal(&d.Dec)
	}
	for id, want := range served {
		if !bytes.Equal(recovered[id], want) {
			t.Errorf("observed decision %s after the crash:\nwant %s\ngot  %s", id, want, recovered[id])
		}
	}
}

// heldSink lets a number of contracts through and parks the decider inside
// Put on the next.
type heldSink struct {
	pass atomic.Int32
	*blockingSink
}

func (h *heldSink) Put(c contract.Contract) error {
	if h.pass.Add(-1) >= 0 {
		return nil
	}
	return h.blockingSink.Put(c)
}

// TestCheckpointCarriesInflightSubmission rotates the journal while the
// decider is in the middle of a submission: popped from the queue, not yet
// decided. The committer takes the snapshot, so it has to find that
// submission somewhere — a snapshot of queue and table alone would drop an
// accepted id with the generation that held its sub record.
func TestCheckpointCarriesInflightSubmission(t *testing.T) {
	dir := t.TempDir()
	// X asks for B's hose at another rate: colliding flow sets are never
	// decided in one pass, so B reaches the journal while X is held.
	held := approvable(1)
	held.Hoses[0].Rate = 6e9
	sink := &heldSink{blockingSink: newBlockingSink()}
	sink.pass.Store(2) // A and B
	opts := crashOptions(dir)
	opts.WAL = WALOptions{Dir: dir, Fsync: FsyncBatch, CheckpointBytes: 1}
	svc, err := OpenService(topology.FigureSix(), sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := mJournalCheckpoints.Value()
	submitWait(t, svc, approvable(0)) // commits now; the next slot is an interval away
	if !eventually(func() bool { return mJournalCheckpoints.Value() > ckpts }) {
		t.Fatal("the first commit did not rotate the journal")
	}
	ckpts = mJournalCheckpoints.Value()
	// B is decided and staged at once and waits for its slot; X follows it
	// into the decider and stays there.
	if _, err := svc.Submit(approvable(1)); err != nil {
		t.Fatal(err)
	}
	idX, err := svc.Submit(held)
	if err != nil {
		t.Fatal(err)
	}
	<-sink.entered
	if !eventually(func() bool { return mJournalCheckpoints.Value() > ckpts }) {
		t.Fatal("B's commit did not rotate the journal")
	}
	svc.mu.Lock() // the rotation, which counts before it prunes, holds it
	st, err := ReplayWAL(dir)
	svc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range st.Pending {
		for _, id := range p.IDs {
			found = found || id == idX
		}
	}
	if !found {
		t.Errorf("%s, in the decider during the rotation, is not in the journal: pending %+v", idX, st.Pending)
	}
	close(sink.release)
	if _, err := svc.Wait(idX, time.Minute); err != nil {
		t.Fatal(err)
	}
	svc.Close()
}

// TestRecoverParentJournal recovers a journal directory written and crashed
// by the commit before the amortised-checkpoint/group-commit change
// (testdata/wal-pr12: one rotation behind it, decided and in-flight work,
// singles and groups). Replay must fold it into the same state, the
// decisions served must be the bytes that commit served from it, and this
// commit's encoder must frame every one of its records to the same bytes.
func TestRecoverParentJournal(t *testing.T) {
	fixture := filepath.Join("testdata", "wal-pr12")
	dir := copyDir(t, filepath.Join(fixture, "wal"))

	st, err := ReplayWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.MarshalIndent(st, "", " ")
	want, err := os.ReadFile(filepath.Join(fixture, "replayed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("replayed state differs from the parent commit's:\nwant %s\ngot  %s", want, got)
	}

	gens, _ := walNames.List(dir)
	var enc recordlog.Encoder
	for _, g := range gens {
		data, err := os.ReadFile(walNames.Path(dir, g))
		if err != nil {
			t.Fatal(err)
		}
		recs, valid, _ := decodeWALStream(bytes.NewReader(data))
		var again []byte
		for i := range recs {
			b, err := enc.Encode(&recs[i])
			if err != nil {
				t.Fatal(err)
			}
			again = append(again, b...)
		}
		if !bytes.Equal(again, data[:valid]) {
			t.Errorf("generation %d: re-encoding its %d records yields different bytes", g, len(recs))
		}
	}

	var served map[string]json.RawMessage
	raw, err := os.ReadFile(filepath.Join(fixture, "served.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &served); err != nil {
		t.Fatal(err)
	}
	opts := crashOptions(dir)
	opts.WAL.CheckpointBytes = 8192
	svc, err := OpenService(topology.FigureSix(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	known := len(st.Decided)
	for _, p := range st.Pending {
		known += len(p.IDs)
	}
	if len(served) != known || len(st.Decided) == 0 || len(st.Pending) == 0 {
		t.Fatalf("fixture serves %d ids; replay knows %d (%d decided, %d pending submissions)", len(served), known, len(st.Decided), len(st.Pending))
	}
	for id, want := range served {
		d, err := svc.Wait(id, 2*time.Minute)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		var compact bytes.Buffer
		json.Compact(&compact, want)
		if got, _ := json.Marshal(d); !bytes.Equal(got, compact.Bytes()) {
			t.Errorf("%s recovered differently from the parent commit:\nwant %s\ngot  %s", id, compact.Bytes(), got)
		}
	}
}

package contractdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/recordlog"
)

// lastGeneration is the newest log file in dir.
func lastGeneration(t *testing.T, dir string) string {
	t.Helper()
	gens, err := logNames.List(dir)
	if err != nil || len(gens) == 0 {
		t.Fatalf("log generations in %s: %v (%v)", dir, gens, err)
	}
	return logNames.Path(dir, gens[len(gens)-1])
}

// appendFrames appends well-framed payloads to path behind the store's back.
func appendFrames(t *testing.T, path string, payloads ...interface{}) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var enc recordlog.Encoder
	for _, p := range payloads {
		frame, err := enc.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRoundTrip: what was put into a durable store is what a store
// reopened on the same directory serves — across a clean close, and again
// after the reopen compacted the log into a snapshot record.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s.Recovery(); rec.Records != 0 || rec.Truncated || s.Len() != 0 {
		t.Fatalf("fresh directory recovered %+v, %d contracts", rec, s.Len())
	}
	s.Put(adsContract(true))
	s.Put(contract.Contract{NPG: "Logging", SLO: 0.99, Approved: false})
	s.Put(contract.Contract{NPG: "Gone", SLO: 0.9})
	if err := s.Delete("Gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, wantRecords := range []int{5, 1} { // snap+3 put+del, then one snap
		restored, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec := restored.Recovery(); rec.Records != wantRecords || rec.Truncated {
			t.Errorf("recovery = %+v, want %d records", rec, wantRecords)
		}
		if len(restored.List()) != 2 {
			t.Fatalf("restored %d contracts", len(restored.List()))
		}
		rate, found, err := restored.EntitledRate("Ads", contract.ClassA, "A", contract.Egress, t0.Add(time.Hour))
		if err != nil || !found || rate != 1e12 {
			t.Errorf("restored rate = %v %v %v", rate, found, err)
		}
		// Entitlement period times survive the round trip.
		c, _ := restored.Get("Ads")
		if !c.Entitlements[0].Start.Equal(t0) {
			t.Errorf("start = %v, want %v", c.Entitlements[0].Start, t0)
		}
		restored.Close()
	}
	if gens, _ := logNames.List(dir); len(gens) != 1 {
		t.Errorf("generations after three opens: %v, want the older ones pruned", gens)
	}
}

// TestOpenStoreRejectsInvalid: a logged record the store cannot accept — not
// JSON, an unknown type, a contract that fails validation, alone or inside a
// snapshot — ends the valid prefix. What came before it is served, the
// record itself changes nothing, and nothing after it is applied.
func TestOpenStoreRejectsInvalid(t *testing.T) {
	invalid := contract.Contract{NPG: "", SLO: 0.5}
	logging := contract.Contract{NPG: "Logging", SLO: 0.99}
	for name, bad := range map[string]interface{}{
		"malformed":        json.RawMessage(`"{not a record"`),
		"unknown type":     logRecord{T: "mystery"},
		"put without body": logRecord{T: "put"},
		"del without npg":  logRecord{T: "del"},
		"invalid put":      logRecord{T: "put", Put: &invalid},
		"invalid snap":     logRecord{T: "snap", Snap: []contract.Contract{logging, invalid}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.Put(adsContract(true))
			s.Close()
			appendFrames(t, lastGeneration(t, dir), bad, logRecord{T: "put", Put: &logging})

			truncations := mLogReplayTruncations.Value()
			s, err = OpenStore(dir)
			if err != nil {
				t.Fatalf("an unacceptable record prevented start-up: %v", err)
			}
			defer s.Close()
			if rec := s.Recovery(); !rec.Truncated || rec.Records != 2 {
				t.Errorf("recovery = %+v, want the snapshot and the put, truncated", rec)
			}
			if got := mLogReplayTruncations.Value() - truncations; got != 1 {
				t.Errorf("replay_truncations_total moved by %d, want 1", got)
			}
			// Store unchanged by the rejected record and by what follows it.
			if _, ok := s.Get("Ads"); !ok || s.Len() != 1 {
				t.Errorf("store after the rejected record: %v", s.List())
			}
		})
	}
}

// TestOpenStoreErrors: a directory that cannot be a log directory is an
// error, not an empty store.
func TestOpenStoreErrors(t *testing.T) {
	file := t.TempDir() + "/file"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenStore(file); err == nil {
		t.Errorf("opened a store on a regular file: %v", s.List())
	}
}

// faultFile fails its syncs while its disk says so.
type faultFile struct {
	*os.File
	failSync *bool
}

var errInjected = errors.New("injected fault")

func (f faultFile) Sync() error {
	if *f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

// TestLogTelemetry moves every contract-log instrument by an exact amount:
// one record, its bytes and one fsync per acknowledged mutation and per
// snapshot, one error per refused mutation, and nothing for a memory store.
func TestLogTelemetry(t *testing.T) {
	type reading struct{ put, del, snap, bytes, fsyncs, errs int64 }
	read := func() reading {
		return reading{
			mLogRecords.With("put").Value(), mLogRecords.With("del").Value(), mLogRecords.With("snap").Value(),
			mLogBytes.Value(), mLogFsyncs.Value(), mLogErrors.Value(),
		}
	}
	delta := func(from reading) reading {
		to := read()
		return reading{to.put - from.put, to.del - from.del, to.snap - from.snap, to.bytes - from.bytes, to.fsyncs - from.fsyncs, to.errs - from.errs}
	}
	size := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	before := read()
	mem := NewStore()
	mem.Put(adsContract(true))
	mem.Delete("Ads")
	if got := delta(before); got != (reading{}) {
		t.Errorf("a memory-only store moved the log instruments: %+v", got)
	}

	dir := t.TempDir()
	failSync := false
	s, err := openStore(dir, logBound, func(path string) (recordlog.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		return faultFile{f, &failSync}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen1 := lastGeneration(t, dir)
	if got, want := delta(before), (reading{snap: 1, bytes: size(gen1), fsyncs: 1}); got != want {
		t.Errorf("open moved %+v, want %+v", got, want)
	}

	before, sizeBefore := read(), size(gen1)
	if err := s.Put(adsContract(true)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("Ads"); err != nil {
		t.Fatal(err)
	}
	if got, want := delta(before), (reading{put: 1, del: 1, bytes: size(gen1) - sizeBefore, fsyncs: 2}); got != want {
		t.Errorf("put+delete moved %+v, want %+v", got, want)
	}

	// A put that cannot be made durable is refused, counted, and invisible.
	before, sizeBefore = read(), size(gen1)
	failSync = true
	if err := s.Put(adsContract(true)); !errors.Is(err, errInjected) {
		t.Fatalf("put with a failing sync = %v, want the injected fault", err)
	}
	if _, ok := s.Get("Ads"); ok {
		t.Error("a put that was not logged is visible")
	}
	if got, want := delta(before), (reading{put: 1, bytes: size(gen1) - sizeBefore, errs: 1}); got != want {
		t.Errorf("refused put moved %+v, want %+v", got, want)
	}
	// While the fault lasts the store refuses mutations: it cannot start the
	// clean generation it needs after a failed append.
	before = read()
	if err := s.Delete("Nope"); !errors.Is(err, errInjected) {
		t.Fatalf("delete with a failing sync = %v, want the injected fault", err)
	}
	if got, want := delta(before), (reading{errs: 1}); got != want {
		t.Errorf("refused delete moved %+v, want %+v", got, want)
	}
	// Fault gone: the next mutation rotates to a clean generation first.
	failSync = false
	before = read()
	if err := s.Put(adsContract(true)); err != nil {
		t.Fatal(err)
	}
	gen2 := lastGeneration(t, dir)
	if got, want := delta(before), (reading{put: 1, snap: 1, bytes: size(gen2), fsyncs: 2}); got != want || gen2 == gen1 {
		t.Errorf("put after the fault moved %+v (generation %s), want %+v in a new generation", got, gen2, want)
	}
}

// crashDisk is an openStore creation seam that can kill the process: right
// after the writesLeft-th write from now nothing reaches the disk any more
// and every operation fails. It remembers how much of each file a completed
// sync covers — what a real crash is guaranteed to leave.
type crashDisk struct {
	files      map[string]*crashFile
	writesLeft int
	crashed    bool
}

type crashFile struct {
	*os.File
	d               *crashDisk
	written, synced int64
}

var errCrashed = errors.New("crashed")

func (d *crashDisk) create(path string) (recordlog.File, error) {
	if d.crashed {
		return nil, errCrashed
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{File: f, d: d}
	d.files[path] = cf
	return cf, nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	if f.d.crashed {
		return 0, errCrashed
	}
	n, err := f.File.Write(p)
	f.written += int64(n)
	if f.d.writesLeft--; f.d.writesLeft == 0 {
		f.d.crashed = true // this write landed; its sync never will
	}
	return n, err
}

// Sync records what is durable; the page cache of a test that never loses
// power is as good as the disk.
func (f *crashFile) Sync() error {
	if f.d.crashed {
		return errCrashed
	}
	f.synced = f.written
	return nil
}

// randContract draws a valid contract of varying size for one of a few NPGs.
func randContract(rng *rand.Rand) contract.Contract {
	npg := contract.NPG(fmt.Sprintf("svc%d", rng.Intn(8)))
	c := contract.Contract{NPG: npg, SLO: contract.SLO(0.9 + 0.09*rng.Float64()), Approved: rng.Intn(4) > 0}
	for i := rng.Intn(6); i > 0; i-- {
		c.Entitlements = append(c.Entitlements, contract.Entitlement{
			NPG: npg, Class: contract.ClassA, Region: "A", Direction: contract.Egress,
			Rate: float64(1+rng.Intn(1000)) * 1e9, Start: t0, End: t1,
		})
	}
	return c
}

// TestStoreCrashRecoveryProperty: random puts, replacements and deletes
// against a durable store whose log rotates every few KiB, killed right after
// a random write — an append or a rotation's snapshot — with a random amount
// of what no completed sync covers then torn off, none of it included. (Bit
// flips and garbage in a tail are the format's cases, recordlog's
// TestScanCrashTail; package faults imports this one.) Across 50 seeds the
// reopened store holds exactly the acknowledged operations; the one operation
// in flight at the crash, never acknowledged, is either absent or applied
// whole.
//
// Mutation check: with the sync before the acknowledgement removed from
// appendLocked this fails on most seeds (acknowledged puts sit in the torn
// tail).
func TestStoreCrashRecoveryProperty(t *testing.T) {
	const runs = 50
	torn := 0
	for run := 0; run < runs; run++ {
		t.Run(fmt.Sprintf("run%02d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(run)))
			dir := t.TempDir()
			disk := &crashDisk{files: make(map[string]*crashFile)}
			s, err := openStore(dir, int64(2+rng.Intn(4))<<10, disk.create)
			if err != nil {
				t.Fatal(err)
			}
			disk.writesLeft = 1 + rng.Intn(120)

			acked := make(map[contract.NPG]contract.Contract) // the model
			var inflight func(map[contract.NPG]contract.Contract)
			for inflight == nil {
				var op func(map[contract.NPG]contract.Contract)
				if c := randContract(rng); rng.Intn(5) > 0 {
					err, op = s.Put(c), func(m map[contract.NPG]contract.Contract) { m[c.NPG] = c }
				} else {
					err, op = s.Delete(c.NPG), func(m map[contract.NPG]contract.Contract) { delete(m, c.NPG) }
				}
				if err != nil {
					if !disk.crashed {
						t.Fatalf("mutation failed before the crash: %v", err)
					}
					inflight = op
					break
				}
				op(acked)
				if !reflect.DeepEqual(listOf(acked), s.List()) {
					t.Fatal("store and model disagree before the crash")
				}
			}

			last := lastGeneration(t, dir)
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			desc := "nothing un-synced to lose"
			if unsynced := fi.Size() - disk.files[last].synced; unsynced > 0 {
				torn++
				cut := rng.Int63n(unsynced + 1)
				desc = fmt.Sprintf("tear %d of %d un-synced bytes", cut, unsynced)
				if err := os.Truncate(last, fi.Size()-cut); err != nil {
					t.Fatal(err)
				}
			}

			reopened, err := OpenStore(dir)
			if err != nil {
				t.Fatalf("reopen after %s: %v", desc, err)
			}
			defer reopened.Close()
			got := reopened.List()
			if reflect.DeepEqual(got, listOf(acked)) {
				return
			}
			inflight(acked)
			if !reflect.DeepEqual(got, listOf(acked)) {
				t.Errorf("after %s the store holds neither the acknowledged operations nor those plus the one in flight:\ngot %v", desc, got)
			}
		})
	}
	t.Logf("%d of %d crashes had un-synced bytes to lose", torn, runs)
}

// listOf renders a model the way Store.List renders the store, through the
// JSON round trip a logged contract takes.
func listOf(m map[contract.NPG]contract.Contract) []contract.Contract {
	s := NewStore()
	for _, c := range m {
		b, _ := json.Marshal(c)
		var back contract.Contract
		json.Unmarshal(b, &back)
		s.contracts[c.NPG] = back
	}
	return s.List()
}

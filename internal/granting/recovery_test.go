package granting

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/faults"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

// crashOptions keeps the risk pass cheap enough for dozens of randomized
// runs while still exercising the real Monte-Carlo engine.
func crashOptions(dir string) Options {
	return Options{
		Approval: approval.Options{
			RepresentativeTMs: 2,
			DefaultSLO:        0.99,
			Risk:              risk.Options{Scenarios: 20, Seed: 11, Workers: 2},
			Seed:              7,
		},
		WAL: WALOptions{Dir: dir, Fsync: FsyncNone},
	}
}

// randRequest draws one single-hose request over the FigureSix mesh; about
// one in eight is hopelessly oversubscribed so rejections and negotiations
// appear in the journal alongside approvals.
func randRequest(rng *rand.Rand) Request {
	npgs := []contract.NPG{"Web", "Ads", "Batch", "ML", "Cache"}
	regions := []topology.Region{"A", "B", "C", "D", "E"}
	classes := []contract.Class{contract.C2Low, contract.C3Low}
	dirs := []contract.Direction{contract.Egress, contract.Ingress}
	rate := float64(10+rng.Intn(90)) * 1e9
	if rng.Intn(8) == 0 {
		rate = 9e12
	}
	r := Request{
		NPG:       npgs[rng.Intn(len(npgs))],
		StartUnix: testStart.Unix(),
		Hoses: []hose.Request{{
			Class:     classes[rng.Intn(len(classes))],
			Region:    regions[rng.Intn(len(regions))],
			Direction: dirs[rng.Intn(len(dirs))],
			Rate:      rate,
		}},
	}
	if rng.Intn(4) == 0 {
		r.Negotiate = true
	}
	return r
}

// copyDir clones a journal directory byte-for-byte so two recoveries can
// run against identical damage.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashRecoveryProperty is the randomized durability property pinned by
// ISSUE 7: across ≥50 runs of submit → crash mid-stream (Kill plus a torn,
// flipped, or garbage-extended journal tail) → restart,
//
//   - every request id whose decision survived replay is served with
//     byte-identical JSON to what the pre-crash service returned, and
//   - every surviving in-flight submission re-decides deterministically:
//     two independent recoveries of the same damaged journal agree
//     byte-for-byte on every decision they produce.
func TestCrashRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized crash-recovery property is not a -short test")
	}
	const runs = 50
	for run := 0; run < runs; run++ {
		run := run
		t.Run(fmt.Sprintf("run%02d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(run)))
			dir := t.TempDir()
			svc, err := OpenService(topology.FigureSix(), nil, crashOptions(dir))
			if err != nil {
				t.Fatal(err)
			}

			var ids []string
			n := 3 + rng.Intn(4)
			for i := 0; i < n; i++ {
				if rng.Intn(5) == 0 {
					gids, err := svc.SubmitGroup([]Request{randRequest(rng), randRequest(rng)})
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, gids...)
					continue
				}
				id, err := svc.Submit(randRequest(rng))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			// Wait for a random prefix so the crash lands with a mix of
			// decided and in-flight work.
			for _, id := range ids[:rng.Intn(len(ids)+1)] {
				if _, err := svc.Wait(id, 2*time.Minute); err != nil {
					t.Fatalf("pre-crash wait %s: %v", id, err)
				}
			}
			preCrash := make(map[string][]byte)
			for _, id := range ids {
				if state, d := svc.Status(id); state == "decided" {
					preCrash[id], _ = json.Marshal(d)
				}
			}
			svc.Kill()

			// Damage the journal tail the way a crash mid-write would.
			gens, err := walNames.List(dir)
			if err != nil || len(gens) == 0 {
				t.Fatalf("no journal generations: %v", err)
			}
			desc, err := faults.CrashTail(walNames.Path(dir, gens[len(gens)-1]), rng, 200)
			if err != nil {
				t.Fatal(err)
			}

			dir2 := copyDir(t, dir)
			stA, err := ReplayWAL(dir)
			if err != nil {
				t.Fatalf("replay after %s: %v", desc, err)
			}
			stB, err := ReplayWAL(dir2)
			if err != nil {
				t.Fatal(err)
			}
			ja, _ := json.Marshal(stA)
			jb, _ := json.Marshal(stB)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("identical bytes replayed to different states after %s:\nA %s\nB %s", desc, ja, jb)
			}

			svcA, err := OpenService(topology.FigureSix(), nil, crashOptions(dir))
			if err != nil {
				t.Fatalf("reopen A after %s: %v", desc, err)
			}
			defer svcA.Close()
			svcB, err := OpenService(topology.FigureSix(), nil, crashOptions(dir2))
			if err != nil {
				t.Fatalf("reopen B after %s: %v", desc, err)
			}
			defer svcB.Close()

			// Survived decisions serve byte-identically.
			for _, d := range stA.Decided {
				want, sawPreCrash := preCrash[d.ID]
				state, got := svcA.Status(d.ID)
				if state != "decided" || got == nil {
					t.Fatalf("recovered-decided id %s is %q after restart (%s)", d.ID, state, desc)
				}
				if sawPreCrash {
					gj, _ := json.Marshal(got)
					if !bytes.Equal(gj, want) {
						t.Errorf("id %s not byte-identical after crash (%s):\nwant %s\ngot  %s", d.ID, desc, want, gj)
					}
				}
			}
			// Surviving in-flight work re-decides, and the two recoveries
			// agree byte-for-byte on everything they know.
			known := make([]string, 0, len(ids))
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
				jda, _ := json.Marshal(da)
				jdb, _ := json.Marshal(db)
				if !bytes.Equal(jda, jdb) {
					t.Errorf("recoveries disagree on %s (%s):\nA %s\nB %s", id, desc, jda, jdb)
				}
			}
		})
	}
}

// blockingSink parks the decider inside Put until released, holding the
// admission queue artificially full for the overload tests.
type blockingSink struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingSink() *blockingSink {
	return &blockingSink{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingSink) Put(contract.Contract) error {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return nil
}

// approvable returns a request the FigureSix mesh grants easily, with a
// distinct hose key per call so queued singles never collide.
func approvable(i int) Request {
	regions := []topology.Region{"A", "B", "C", "D", "E"}
	return Request{
		NPG:       contract.NPG(fmt.Sprintf("Web%d", i)),
		StartUnix: testStart.Unix(),
		Hoses: []hose.Request{{
			Class: contract.C2Low, Region: regions[i%len(regions)],
			Direction: contract.Egress, Rate: 5e9,
		}},
	}
}

// TestOverloadShed pins the admission bound: with the decider parked and
// the queue at MaxQueue, further submissions shed with ErrOverloaded
// wrapped in wire.Overloaded (retry-after hint attached), the queue depth
// never exceeds the bound, and nothing leaks once the storm passes.
func TestOverloadShed(t *testing.T) {
	base := runtime.NumGoroutine()
	sink := newBlockingSink()
	opts := testOptions(2)
	opts.MaxQueue = 4
	opts.ShedRetryAfter = 250 * time.Millisecond
	svc := NewService(topology.FigureSix(), sink, opts)

	// Park the decider inside the sink so the queue backs up behind it.
	first, err := svc.Submit(approvable(0))
	if err != nil {
		t.Fatal(err)
	}
	<-sink.entered

	var queued []string
	for i := 1; i <= 4; i++ {
		id, err := svc.Submit(approvable(i))
		if err != nil {
			t.Fatalf("submit %d within MaxQueue: %v", i, err)
		}
		queued = append(queued, id)
	}
	// The bound holds: one more single and one group both shed.
	shed := 0
	for _, reqs := range [][]Request{{approvable(5)}, {approvable(6), approvable(7)}} {
		_, err := svc.SubmitGroup(reqs)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("over-bound submit returned %v, want ErrOverloaded", err)
		}
		var ov *wire.Overloaded
		if !errors.As(err, &ov) {
			t.Fatalf("shed error %v is not wire.Overloaded", err)
		}
		if ov.RetryAfter != 250*time.Millisecond {
			t.Errorf("RetryAfter = %v, want 250ms", ov.RetryAfter)
		}
		shed += len(reqs)
	}
	st := svc.Stats()
	if st.QueueDepth != 4 {
		t.Errorf("queue depth %d under storm, want 4", st.QueueDepth)
	}
	if st.Shed != int64(shed) {
		t.Errorf("Stats.Shed = %d, want %d", st.Shed, shed)
	}

	// Release the decider: everything queued (never the shed work) decides.
	close(sink.release)
	for _, id := range append([]string{first}, queued...) {
		if _, err := svc.Wait(id, 2*time.Minute); err != nil {
			t.Fatalf("wait %s after release: %v", id, err)
		}
	}
	st = svc.Stats()
	if st.Decided != 5 || st.QueueDepth != 0 {
		t.Errorf("after drain: decided %d depth %d, want 5 and 0", st.Decided, st.QueueDepth)
	}
	svc.Close()
	waitForServiceGoroutines(t, base)
}

// TestQueueTimeout pins MaxQueueDelay: requests that age out behind a stuck
// decider fail with a queue-timeout decision instead of getting a grant
// nobody is waiting for.
func TestQueueTimeout(t *testing.T) {
	var mu sync.Mutex
	now := testStart
	sink := newBlockingSink()
	opts := testOptions(2)
	opts.MaxQueueDelay = time.Second
	opts.Now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	svc := NewService(topology.FigureSix(), sink, opts)
	defer svc.Close()

	first, err := svc.Submit(approvable(0))
	if err != nil {
		t.Fatal(err)
	}
	<-sink.entered
	stale, err := svc.Submit(approvable(1))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	close(sink.release)

	d, err := svc.Wait(stale, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != StatusQueueTimeout {
		t.Fatalf("aged request decided %q, want %q", d.Status, StatusQueueTimeout)
	}
	if d.Err == "" || d.NPG != "Web1" {
		t.Errorf("timeout decision incomplete: %+v", d)
	}
	if df, err := svc.Wait(first, 2*time.Minute); err != nil || df.Status == StatusQueueTimeout {
		t.Fatalf("in-flight request caught by the sweep: %v %v", df, err)
	}
	if st := svc.Stats(); st.QueueTimeouts != 1 {
		t.Errorf("Stats.QueueTimeouts = %d, want 1", st.QueueTimeouts)
	}
}

// waitForServiceGoroutines polls until the goroutine count returns near
// base — the decider, waiters, and risk workers must all be gone.
func waitForServiceGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

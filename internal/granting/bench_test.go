package granting

import (
	"sort"
	"testing"
	"time"

	"entitlement/internal/topology"
)

// benchOptions is heavier than testOptions: a realistic scenario count so
// the cold path pays the real Monte-Carlo price.
func benchOptions() Options {
	o := testOptions(0)
	o.Approval.Risk.Scenarios = 200
	o.Approval.RepresentativeTMs = 4
	return o
}

// decideRound submits the set as one group and waits all decisions out.
func decideRound(b testing.TB, svc *Service, reqs []Request) {
	b.Helper()
	ids, err := svc.SubmitGroup(append([]Request(nil), reqs...))
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range ids {
		if _, err := svc.Wait(id, 2*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrantdWarmCache measures decision latency for a request set the
// service has already decided: the decision memo answers, no risk pass runs.
func BenchmarkGrantdWarmCache(b *testing.B) {
	topo := topology.FigureSix()
	svc := NewService(topo, nil, benchOptions())
	defer svc.Close()
	reqs := testRequests()
	decideRound(b, svc, reqs) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decideRound(b, svc, reqs)
	}
}

// BenchmarkGrantdJournaledFullRing measures a memoized four-hose decision
// through a journaled service at cmd/grantd's journal defaults once the
// retention ring is full — the regime where the snapshot alone outgrows
// -checkpoint-bytes, and a checkpoint taken too often dwarfs everything
// else (ISSUE 13: 20 ms a decision before the rotation rule counted only
// the bytes after the snapshot). One submitter in a tight loop is paced to
// the commit slots, so ns/op reads commitInterval; the regime shows in
// ckpts/op and journalB/op.
func BenchmarkGrantdJournaledFullRing(b *testing.B) {
	opts := benchOptions()
	opts.WAL = WALOptions{Dir: b.TempDir()}
	svc := NewService(topology.FigureSix(), nil, opts)
	defer svc.Close()
	pool := fourHosePool()
	fillRing(b, svc, pool)
	ckpts, written := mJournalCheckpoints.Value(), mJournalBytes.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitWait(b, svc, pool[i%len(pool)])
	}
	b.StopTimer()
	b.ReportMetric(float64(mJournalCheckpoints.Value()-ckpts)/float64(b.N), "ckpts/op")
	b.ReportMetric(float64(mJournalBytes.Value()-written)/float64(b.N), "journalB/op")
}

// BenchmarkGrantdColdAssess measures the same decision with every cache
// empty: fresh service, fresh scenario sets, fresh runners.
func BenchmarkGrantdColdAssess(b *testing.B) {
	topo := topology.FigureSix()
	reqs := testRequests()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := NewService(topo, nil, benchOptions())
		decideRound(b, svc, reqs)
		svc.Close()
	}
}

// TestWarmCacheSpeedup pins the acceptance bar: warm p50 decision latency
// must be at least 5x lower than cold. In practice the memo answers in
// microseconds against milliseconds of Monte-Carlo, so the margin is wide.
func TestWarmCacheSpeedup(t *testing.T) {
	topo := topology.FigureSix()
	reqs := testRequests()
	const rounds = 9
	median := func(xs []time.Duration) time.Duration {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs[len(xs)/2]
	}

	var cold []time.Duration
	for i := 0; i < rounds; i++ {
		svc := NewService(topo, nil, benchOptions())
		t0 := time.Now()
		decideRound(t, svc, reqs)
		cold = append(cold, time.Since(t0))
		svc.Close()
	}

	svc := NewService(topo, nil, benchOptions())
	defer svc.Close()
	decideRound(t, svc, reqs) // prime
	var warm []time.Duration
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		decideRound(t, svc, reqs)
		warm = append(warm, time.Since(t0))
	}
	if st := svc.Stats(); st.MemoHits == 0 {
		t.Fatalf("warm rounds never hit the memo: %+v", st)
	}

	cm, wm := median(cold), median(warm)
	t.Logf("cold p50 %v, warm p50 %v (%.1fx)", cm, wm, float64(cm)/float64(wm))
	if wm*5 > cm {
		t.Errorf("warm p50 %v not 5x below cold p50 %v", wm, cm)
	}
}

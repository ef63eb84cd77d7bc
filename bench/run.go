package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"entitlement/internal/obs"
)

// spec sizes one workload. The smoke test shrinks the sizes; the checks stay.
type spec struct {
	name string
	why  string
	// grant workloads: pool > 0 loops over that many pre-decided requests
	// (memo hits), 0 draws a fresh request every time (memo misses).
	// warmDecisions is how many decisions set-up makes in all: enough to fill
	// grantd's retention ring (Options.Retain, 1024 by default).
	// recoverSubs sizes the recovery probe's journal.
	pool          int
	warmDecisions int
	recoverSubs   int
	// fleet workloads: agents on the measured flow set, background keys other
	// flow sets hold in the rate store, and how often the re-grant probe
	// changes the entitlement (a round costs a grant and one sweep).
	agents      int
	bgKeys      int
	probeRounds int
}

var specs = []spec{
	{name: "grant_fresh", warmDecisions: 1024, recoverSubs: 512,
		why: "never-seen requests miss the decision memo: the only workload that pays approval/risk/flow/hose, on top of the journal; wire and kvstore changes must not move it"},
	{name: "grant_repeat", pool: 256, warmDecisions: 1024, recoverSubs: 512,
		why: "re-asked requests hit the memo, so the journal (records, fsyncs, checkpoints), JSON payloads, wire round trips and the contractdb push own the time; risk changes must not move it"},
	{name: "fleet_small", agents: 16, probeRounds: 21, recoverSubs: 512,
		why: "16 agents over a 32-key rate store: a cycle is five loopback round trips and little else, so wire owns the time"},
	{name: "fleet_large", agents: 512, bgKeys: 7168, probeRounds: 5, recoverSubs: 512,
		why: "512 agents beside 7168 keys of other flow sets: two full-map SumPrefix scans per cycle own the time, wire barely shows"},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// config is one run of one workload.
type config struct {
	spec
	seed    int64
	window  time.Duration // timed window; a traced run splits it
	trace   bool
	ids     *traceIDs // traced runs only
	drivers int
	tmp     string // journals live under here
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produced.
type report struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`   // end to end
	Layer     map[string]metric `json:"per_layer"` // traced runs fill all of them
	// Samples counts the observations behind each metric that has more than
	// one.
	Samples map[string]int `json:"samples"`
	// Checks lists every output check that failed.
	Checks []string `json:"failed_checks,omitempty"`
	// Layers is the traced run's layer-share table, ready to print.
	Layers []string `json:"-"`
	spans  []span
	// ops counts the operations of the timed part; tracedP50 is a traced
	// run's median root span, ns.
	ops       float64
	tracedP50 float64
}

func newReport(name string) *report {
	return &report{Workload: name, Metrics: map[string]metric{}, Layer: map[string]metric{}, Samples: map[string]int{}}
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
}

func (r *report) layer(name string, value float64, unit string) {
	r.Layer[name] = metric{value, unit}
}

// check records a failed output check.
func (r *report) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// windowStats is one timed window's outcome.
type windowStats struct {
	samples    []sample
	failed     int64
	elapsed    time.Duration
	allocBytes uint64
}

// timedWindow runs op in a closed loop on every driver for d: a driver
// issues its next operation only when the previous one returned. op reports
// whether the operation succeeded; failed ones still count as attempted and
// keep their latency. Sample buffers are allocated before the clock starts
// so the harness stays out of alloc_kb_per_op.
func timedWindow(drivers int, d time.Duration, op func(driver int) bool) windowStats {
	bufs := make([][]sample, drivers)
	for i := range bufs {
		bufs[i] = make([]sample, 0, int(d.Seconds()*40000)+1024)
	}
	failed := make([]int64, drivers)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < drivers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				at := t0.Sub(start)
				if at >= d {
					return
				}
				ok := op(i)
				bufs[i] = append(bufs[i], sample{int64(at), int64(time.Since(t0))})
				if !ok {
					failed[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	w := windowStats{elapsed: time.Since(start)}
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	for i := range bufs {
		w.samples = append(w.samples, bufs[i]...)
		w.failed += failed[i]
	}
	return w
}

// slices is how many equal slices of a window the throughput and tail
// median over.
const slices = 5

func (w windowStats) perSec() float64 { return float64(len(w.samples)) / w.elapsed.Seconds() }

// measure runs the workload's timed part. An untraced run spends the whole
// window on one closed loop and reports the end-to-end metrics from it. A
// traced run alternates four fifths of the window between tracers off and
// tracers on, twice, so that drift over the run falls on both alike: the
// traced parts give the spans, the difference in throughput between the two
// is what tracing costs.
func (r *report) measure(c config, tracers []*tracer, op func(driver int) bool) {
	if !c.trace {
		w := timedWindow(c.drivers, c.window, op)
		n := len(w.samples)
		r.set("op_p50_us", median(durations(w.samples))/1e3, "us")
		r.set("ops_per_s", slicedRate(w.samples, int64(c.window), slices), "1/s")
		r.set("alloc_kb_per_op", float64(w.allocBytes)/1024/float64(n), "kB")
		r.Samples["op_p50_us"], r.Samples["ops_per_s"], r.Samples["alloc_kb_per_op"] = n, n, n
		r.ops, r.Attempted, r.Failed = float64(n), r.Attempted+int64(n), r.Failed+w.failed
		return
	}
	var plain, traced windowStats
	for round := 0; round < 2; round++ {
		plain.add(timedWindow(c.drivers, c.window/5, op))
		for _, t := range tracers {
			t.on = true
		}
		traced.add(timedWindow(c.drivers, c.window/5, op))
		for _, t := range tracers {
			t.on = false
		}
	}
	r.ops = float64(len(plain.samples) + len(traced.samples))
	r.Attempted += int64(r.ops)
	r.Failed += plain.failed + traced.failed
	// The tail is too noisy on a shared host to gate on, so it is reported
	// here: over the untraced parts, laid over each other and cut into slices.
	r.layer("op_p99_us", slicedP99(plain.samples, int64(c.window/5), slices)/1e3, "us")
	r.Samples["op_p99_us"] = len(plain.samples) / slices
	r.layer("bench.trace_overhead_pct", 100*(1-traced.perSec()/plain.perSec()), "%")
}

// collect takes over what the tracers recorded and parents the sink's spans.
func (r *report) collect(tracers []*tracer) {
	for _, t := range tracers {
		if t != nil {
			r.spans = append(r.spans, t.spans...)
			t.spans = nil
		}
	}
	joinPushes(r.spans)
}

func (w *windowStats) add(more windowStats) {
	w.samples = append(w.samples, more.samples...)
	w.failed += more.failed
	w.elapsed += more.elapsed
}

// obsCounters snapshots the program's own counters that the per-layer
// metrics are ratios of.
func obsCounters() map[string]float64 {
	snap := obs.Default().Snapshot()
	sum := func(name string) float64 {
		switch v := snap[name].(type) {
		case int64:
			return float64(v)
		case map[string]interface{}: // a counter family: total over its labels
			total := 0.0
			for _, child := range v {
				if n, ok := child.(int64); ok {
					total += float64(n)
				}
			}
			return total
		}
		return 0
	}
	out := make(map[string]float64)
	for _, name := range []string{
		"entitlement_wire_client_calls_total",
		"entitlement_wire_client_bytes_sent_total",
		"entitlement_wire_client_bytes_received_total",
		"entitlement_grantd_journal_checkpoints_total",
		"entitlement_grantd_journal_bytes_total",
		"entitlement_grantd_journal_fsyncs_total",
	} {
		out[name] = sum(name)
	}
	return out
}

// wireCounters reports how far the program's wire counters moved since
// before, per operation measured in between, and how many contracts grantd
// has pushed.
func (r *report) wireCounters(before map[string]float64, st *stack) {
	r.layer("contractdb.contracts", float64(st.db.Len()), "count")
	after := obsCounters()
	per := func(name string) float64 { return (after[name] - before[name]) / r.ops }
	r.layer("wire.round_trips_per_op", per("entitlement_wire_client_calls_total"), "count")
	r.layer("wire.bytes_per_op", per("entitlement_wire_client_bytes_sent_total")+per("entitlement_wire_client_bytes_received_total"), "B")
}

// journalCounters reports how far grantd's journal counters moved since
// before, per decision grantd made in between: in the timed window on the
// grant workloads, in the re-grant probe on the fleets.
func (r *report) journalCounters(before map[string]float64, decided int64) {
	after := obsCounters()
	per := func(name string) float64 { return (after[name] - before[name]) / float64(decided) }
	r.layer("granting.checkpoints_per_decision", per("entitlement_grantd_journal_checkpoints_total"), "count")
	r.layer("granting.journal_kb_per_decision", per("entitlement_grantd_journal_bytes_total")/1024, "kB")
	r.layer("granting.fsyncs_per_decision", per("entitlement_grantd_journal_fsyncs_total"), "count")
}

// medianSetup builds the workload's fleet several times and keeps the last:
// set-up time is the median, so a later change that moves work into set-up
// shows against a steady number. It builds three times, and goes on while
// set-ups are cheap (up to 25 times or three quarters of a second in all) —
// a 6 ms set-up needs more repeats than a 2 s one to read steadily. A traced
// run, which does not report set-up time, builds once.
func medianSetup[T any](r *report, c config, build func() (T, error), discard func(T)) (T, error) {
	var times []float64
	first := time.Now()
	for {
		start := time.Now()
		v, err := build()
		if err != nil {
			return v, err
		}
		times = append(times, time.Since(start).Seconds())
		if n := len(times); c.trace || n == 25 || n >= 3 && time.Since(first) > 750*time.Millisecond {
			r.set("setup_s", median(times), "s")
			r.Samples["setup_s"] = len(times)
			return v, nil
		}
		discard(v)
	}
}

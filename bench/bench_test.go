package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/topology"
)

func TestQuantiles(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	if got := median(vals); got != 3 {
		t.Errorf("median(5,1,4,2,3) = %v, want 3", got)
	}
	if got := lowerQuartile(vals); got != 2 {
		t.Errorf("lowerQuartile(5,1,4,2,3) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median(4,1,2,3) = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// One slice full of stalls must not own the tail metric.
func TestSlicedP99IgnoresOneBadSlice(t *testing.T) {
	var samples []sample
	window := int64(5000)
	for at := int64(0); at < window; at++ {
		dur := int64(10)
		if at >= 2000 && at < 3000 {
			dur = 100000 // the third slice stalls throughout
		}
		samples = append(samples, sample{at, dur})
	}
	if got := slicedP99(samples, window, 5); got != 10 {
		t.Errorf("slicedP99 = %v, want 10 (the stalled slice must be outvoted)", got)
	}
	if got := quantile(durations(samples), 0.99); got != 100000 {
		t.Errorf("plain p99 = %v, want 100000 (the test's stall should dominate it)", got)
	}
	// Throughput is the median slice's too: 1000 operations per 1000 ns.
	if got := slicedRate(samples[:4500], window, 5); got != 1e9 {
		t.Errorf("slicedRate = %v, want 1e9 (the half-empty last slice must be outvoted)", got)
	}
	// Samples landing exactly on the window's end belong to the last slice.
	if got := slicedP99([]sample{{window, 7}}, window, 5); got != 7 {
		t.Errorf("slicedP99 of a sample at the window's end = %v, want 7", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping counted once", []span{{Start: 110, End: 150}, {Start: 130, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside the parent", []span{{Start: 300, End: 400}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAnalyseJoinsPushesAndSplitsSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "grant", Tag: 7, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "grant.submit_rpc", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "grant.decide_rpc", Start: 10, End: 95},
		{ID: 4, Name: "grant", Tag: 7, Start: 200, End: 300}, // the same pooled request, asked again
		{ID: 5, Parent: 4, Name: "grant.submit_rpc", Start: 200, End: 220},
		{ID: 6, Parent: 4, Name: "grant.decide_rpc", Start: 220, End: 290},
		{ID: 7, Name: "grant.push", Tag: 7, Start: 40, End: 60},
		{ID: 8, Name: "grant.push", Tag: 7, Start: 250, End: 260},
		{ID: 9, Name: "grant.push", Tag: 99, Start: 50, End: 55}, // a warm-up push: no root
	}
	joinPushes(spans)
	if spans[6].Parent != 1 || spans[7].Parent != 4 || spans[8].Parent != 0 {
		t.Fatalf("push parents = %d, %d, %d, want 1, 4, 0", spans[6].Parent, spans[7].Parent, spans[8].Parent)
	}
	b := analyse(spans, "grant")
	if b.ops != 2 || b.op != 100 {
		t.Errorf("ops, median op = %d, %v, want 2, 100", b.ops, b.op)
	}
	// The push overlaps decide_rpc, so it does not reduce self time further.
	if b.self != 7.5 {
		t.Errorf("median self time = %v, want 7.5 (5 and 10)", b.self)
	}
	if b.child["grant.submit_rpc"] != 15 || b.child["grant.push"] != 15 {
		t.Errorf("per-op medians = %v", b.child)
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	topo, err := topology.Backbone(topology.DefaultBackboneOptions())
	if err != nil {
		t.Fatal(err)
	}
	regions := topo.RegionsSorted()
	stream := func(seed int64, driver int) []byte {
		g := newGrantGen(seed, newIdentity(seed, regions), driver, 2)
		var buf bytes.Buffer
		for i := 0; i < 50; i++ {
			req, want := g.next()
			if err := req.Validate(topo); err != nil {
				t.Fatalf("seed %d request %d invalid: %v", seed, i, err)
			}
			json.NewEncoder(&buf).Encode(req)
			buf.WriteString(string(want))
		}
		return buf.Bytes()
	}
	if !bytes.Equal(stream(1, 0), stream(1, 0)) {
		t.Error("the same seed and driver gave two different request streams")
	}
	if bytes.Equal(stream(1, 0), stream(2, 0)) {
		t.Error("seeds 1 and 2 gave the same request stream")
	}
	if bytes.Equal(stream(1, 0), stream(1, 1)) {
		t.Error("two drivers of one seed gave the same request stream")
	}

	// The status mix holds over any stretch of a stream, not just on average.
	for _, seed := range []int64{1, 2, 3} {
		g := newGrantGen(seed, newIdentity(seed, regions), 0, 2)
		mix := map[string]int{}
		for i := 0; i < 100; i++ {
			_, want := g.next()
			mix[string(want)]++
		}
		for status, want := range map[string]int{"approved": 70, "negotiated": 20, "rejected": 10} {
			if got := mix[status]; got < want-2 || got > want+2 {
				t.Errorf("seed %d: %d of 100 requests sized to be %s, want %d±2", seed, got, status, want)
			}
		}
	}

	// Any two requests of a workload share the home hoses' keys, whichever
	// driver drew them: that is what keeps grantd from co-batching them.
	id := newIdentity(5, regions)
	a, _ := newGrantGen(5, id, 0, 2).next()
	b, _ := newGrantGen(5, id, 1, 2).next()
	if a.Hoses[0].Region != b.Hoses[0].Region || a.Hoses[0].Class != b.Hoses[0].Class || a.NPG != b.NPG {
		t.Errorf("two drivers' requests do not collide on the home hose: %+v vs %+v", a.Hoses[0], b.Hoses[0])
	}
	if a.StartUnix == b.StartUnix {
		t.Error("two drivers' requests share a StartUnix tag")
	}

	for _, n := range []int{16, 512} {
		hosts := hostIDs(1, n)
		if !reflect.DeepEqual(hosts, hostIDs(1, n)) {
			t.Errorf("%d hosts: the same seed gave two different fleets", n)
		}
		if reflect.DeepEqual(hosts, hostIDs(2, n)) {
			t.Errorf("%d hosts: seeds 1 and 2 gave the same fleet", n)
		}
		// Evenly over the marking groups: every group holds n/100 hosts,
		// give or take one.
		perGroup := make(map[uint32]int)
		seen := make(map[string]bool)
		for _, h := range hosts {
			perGroup[bpf.HostGroup(h)]++
			seen[h] = true
		}
		if len(seen) != n {
			t.Errorf("%d hosts: only %d distinct names", n, len(seen))
		}
		for g, k := range perGroup {
			if k < n/bpf.NumGroups || k > n/bpf.NumGroups+1 {
				t.Errorf("%d hosts: group %d holds %d, want %d or %d", n, g, k, n/bpf.NumGroups, n/bpf.NumGroups+1)
			}
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// small shrinks a workload for the tests; every check stays on.
func small(s spec) spec {
	if s.agents > 0 {
		// Below a hundred-odd hosts the meters may circle the new entitlement
		// for dozens of sweeps before the conforming rate stays in the band.
		s.agents, s.bgKeys, s.probeRounds = max(s.agents/4, 16), s.bgKeys/8, min(s.probeRounds, 2)
	} else {
		s.pool, s.warmDecisions = s.pool/16, 48
	}
	s.recoverSubs = 48
	return s
}

// TestSmoke runs every workload, untraced and traced, for 300 ms at reduced
// size, and holds the result against BENCHMARK.json: the untraced run must
// report exactly the end-to-end metrics the contract names, with its units,
// and the traced run exactly the per-layer ones. It ends with the goroutine
// count back where it started: every stack and probe closed what it opened.
func TestSmoke(t *testing.T) {
	var contract benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(contract.Workloads), len(specs))
	}
	units := func(list []struct{ Name, Unit string }) map[string]string {
		m := make(map[string]string)
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	got := func(metrics map[string]metric) map[string]string {
		m := make(map[string]string)
		for name, x := range metrics {
			m[name] = x.Unit
		}
		return m
	}
	probeBudget, probeFleet.agents = 5*time.Millisecond, 16
	before := runtime.NumGoroutine()
	for i, s := range specs {
		if contract.Workloads[i].Name != s.name || contract.Workloads[i].Why != s.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the program's is %q: %q", i, contract.Workloads[i], s.name, s.why)
		}
		for _, traced := range []bool{false, true} {
			c := config{spec: small(s), seed: 3, window: 300 * time.Millisecond, trace: traced, ids: &traceIDs{epoch: time.Now()}, drivers: 2, tmp: t.TempDir()}
			r, err := runWorkload(c)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", s.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed, checks %v", s.name, traced, r.Correct, r.Failed, r.Attempted, r.Checks)
			}
			want, have := units(contract.EndToEnd), got(r.Metrics)
			if traced {
				want, have = units(contract.PerLayer), got(r.Layer)
				if len(r.Layers) == 0 || len(r.spans) == 0 {
					t.Errorf("%s: traced run printed %d table lines from %d spans", s.name, len(r.Layers), len(r.spans))
				}
			}
			if !reflect.DeepEqual(want, have) {
				t.Errorf("%s (traced %v): metrics differ from BENCHMARK.json\nmissing or wrong unit: %v\nnot in the contract: %v", s.name, traced, diff(want, have), diff(have, want))
			}
			for name, m := range r.Metrics {
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", s.name, name, m.Value)
				}
			}
			// A layer's time is measured on every workload, by the workload or
			// by a probe on the side: a 0 would read as a measurement. (The
			// journal_* metrics are differences of two, and at this probe
			// budget noise can outweigh them.)
			for name, m := range r.Layer {
				if (m.Unit == "us" || m.Unit == "ns" || m.Unit == "ms") && !strings.HasPrefix(name, "granting.journal_") && !(m.Value > 0) {
					t.Errorf("%s: per-layer metric %s = %v %s, must be positive", s.name, name, m.Value, m.Unit)
				}
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after: something was not closed\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// diff lists the keys of a whose value b lacks or has differently.
func diff(a, b map[string]string) []string {
	var out []string
	for k, v := range a {
		if b[k] != v {
			out = append(out, k+" ("+v+")")
		}
	}
	sort.Strings(out)
	return out
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v interface{}) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", map[string]interface{}{"end_to_end": []map[string]interface{}{
		{"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
	}})
	result := func(name string, p50, perSec float64, failed int64, workloads ...string) string {
		var file resultFile
		for _, w := range append([]string{"fleet_small"}, workloads...) {
			r := newReport(w)
			r.Attempted, r.Failed = 1000, failed
			r.set("op_p50_us", p50, "us")
			if perSec > 0 {
				r.set("ops_per_s", perSec, "1/s")
			}
			file.Results = append(file.Results, r)
		}
		return write(name, file)
	}
	base := result("a.json", 100, 1000, 1)
	for _, c := range []struct {
		name  string
		other string
		agree bool
	}{
		{"same", result("same.json", 100, 1000, 1), true},
		{"within", result("within.json", 108, 920, 1), true},
		{"slower", result("slower.json", 115, 1000, 1), false},
		{"faster", result("faster.json", 85, 1000, 1), false}, // agreement is two-sided: better by more than the bound differs too
		{"fewer", result("fewer.json", 100, 850, 1), false},
		{"more failures", result("failures.json", 100, 1000, 2), false}, // one way only: see below
		{"a metric missing", result("metric.json", 100, 0, 1), false},
		{"a workload more", result("more.json", 100, 1000, 1, "grant_fresh"), false},
	} {
		for _, files := range [][2]string{{base, c.other}, {c.other, base}} {
			if c.name == "more failures" && files[0] == c.other {
				c.agree = true // fewer failures than before is no disagreement
			}
			var out bytes.Buffer
			ok, err := compareFiles(&out, spec, files[0], files[1])
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if ok != c.agree {
				t.Errorf("%s (%s -> %s): agree = %v, want %v\n%s", c.name, filepath.Base(files[0]), filepath.Base(files[1]), ok, c.agree, out.String())
			}
		}
	}
	if _, err := compareFiles(&bytes.Buffer{}, spec, write("empty.json", resultFile{}), base); err == nil {
		t.Error("comparing a file without results succeeded")
	}
}

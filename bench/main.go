// Command bench is the repository's end-to-end benchmark. One process stands
// up the real fleet — grantd with a journal, contractdb, kvstore, enforcement
// agents — behind loopback TCP listeners, drives it in a closed loop, checks
// the outputs, and prints every metric by name and unit. See README.md.
//
// Usage:
//
//	bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE] [-out FILE]
//	bench [-spec BENCHMARK.json] -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 15, "timed window per workload, seconds")
	traced := flag.Int("trace", 0, "1 records spans around every layer call and runs the layer probes; prints the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this file as JSON")
	out := flag.String("out", "", "write the environment and every result to this file as JSON (the input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark contract holding each end-to-end metric's bound, for -compare")
	flag.Parse()

	var ok bool
	var err error
	if *compare {
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
		} else {
			ok, err = compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		}
	} else {
		window := time.Duration(*seconds * float64(time.Second))
		ok, err = runAll(*workload, *seed, window, *traced == 1, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runAll runs one workload, or all of them in turn, prints each report, and
// tells whether every output check passed.
func runAll(workload string, seed int64, window time.Duration, traced bool, out, traceOut string) (bool, error) {
	run := specs
	if workload != "" {
		s, ok := findSpec(workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", workload)
		}
		run = []spec{s}
	}
	tmp, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	// At most one driver per core, and agents share their driver's
	// connections: more would measure the scheduler, not the program.
	drivers := runtime.NumCPU()
	file := resultFile{Env: environment(seed, drivers, tmp)}
	var spans []span
	ids := &traceIDs{epoch: time.Now()}
	correct := true
	for _, s := range run {
		c := config{spec: s, seed: seed, window: window, trace: traced, ids: ids, drivers: drivers, tmp: tmp}
		r, err := runWorkload(c)
		if err != nil {
			return false, fmt.Errorf("%s: %w", s.name, err)
		}
		printReport(r, traced)
		file.Results = append(file.Results, r)
		spans = append(spans, r.spans...)
		correct = correct && r.Correct
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			return false, err
		}
	}
	if traceOut != "" {
		if err := writeJSON(traceOut, spans); err != nil {
			return false, err
		}
	}
	return correct, nil
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload runs one workload and judges it. A traced run goes on to the
// layer probes and the layer-share table.
func runWorkload(c config) (*report, error) {
	run := runGrant
	if c.agents > 0 {
		run = runFleet
	}
	r, err := run(c)
	if err != nil {
		return nil, err
	}
	if c.trace {
		if err := layerProbes(c, r); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		layerTable(c, r)
	}
	r.check(r.Failed == 0, "%s: %d of %d operations failed", c.name, r.Failed, r.Attempted)
	r.Correct = len(r.Checks) == 0
	return r, nil
}

// printReport writes the human-readable block and, as its last line, the
// one-object JSON summary: end-to-end metrics from an untraced run,
// per-layer metrics from a traced one.
func printReport(r *report, traced bool) {
	metrics := r.Metrics
	if traced {
		metrics = r.Layer
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("== %s: %d operations, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, name := range names {
		m := metrics[name]
		line := fmt.Sprintf("%-32s %14.4f %s", name, m.Value, m.Unit)
		if n := r.Samples[name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	if len(r.Layers) > 0 {
		fmt.Println(strings.Join(r.Layers, "\n"))
	}
	for _, c := range r.Checks {
		fmt.Println("CHECK FAILED:", c)
	}
	summary, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Println(string(summary))
}

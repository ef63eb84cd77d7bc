// benchgate is the perf-regression gate (`make bench-regress`): it compares a
// fresh `go test -bench` run against the committed one, BENCH.txt, and fails
// when any benchmark regressed by more than the allowed ratio.
//
//	benchgate [-ratio 2] [-min-baseline-ns 1000] baseline fresh
//
// Both files are verbatim `go test -run=NONE -bench ... -benchmem -count=5`
// output, the format benchstat reads. A benchmark is keyed by its package
// (the `pkg:` header) and name, sub-benchmarks included, with the -N
// GOMAXPROCS suffix stripped so a baseline taken on 2 cores still lines up on
// a 4-core runner (the mismatch is printed, since it can explain a ratio).
//
// Comparison rules:
//
//   - Only ns/op is gated, as the median of a key's repeated lines: one
//     descheduled sample in five moves a mean or a single shot past 2x, not a
//     median. B/op, allocs/op and b.ReportMetric columns describe the
//     workload and are never gated.
//   - A baseline below -min-baseline-ns is skipped: sub-microsecond numbers
//     flap with scheduler noise, and a 2x regression on 40ns is 40ns.
//   - The gate is one-sided. Fresh numbers may be faster without limit.
//   - A key in the baseline and missing from the fresh run fails: a benchmark
//     was renamed or dropped without re-baselining. A key only in the fresh
//     run is listed and passes.
//
// Escape hatch: a deliberate slowdown (richer model, more work per op)
// re-baselines with `make bench-rebaseline`, which rewrites BENCH.txt from a
// fresh run — the diff then documents the new perf envelope in review. There
// is no bypass flag; the gate either passes against the committed numbers or
// the numbers change in the same commit.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/stats"
)

func main() { cli.Main("benchgate", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("benchgate", stderr)
	ratio := fs.Float64("ratio", 2.0, "maximum allowed fresh/baseline ratio of median ns/op")
	minBaseline := fs.Float64("min-baseline-ns", 1000, "skip benchmarks whose baseline median is below this many ns/op (noise floor)")
	if err := cli.ParseArgs(ctx, fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchgate [-ratio R] [-min-baseline-ns N] baseline fresh")
		return cli.ErrUsage
	}
	var runs [2]*benchRun
	for i, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err == nil {
			runs[i], err = parse(string(text))
		}
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	}
	base, fresh := runs[0], runs[1]
	if base.procs != fresh.procs {
		fmt.Fprintf(stdout, "benchgate: note: baseline ran at GOMAXPROCS=%s, fresh at GOMAXPROCS=%s\n", base.procs, fresh.procs)
	}
	regressions, report := compare(base.nsPerOp, fresh.nsPerOp, *ratio, *minBaseline)
	for _, line := range report {
		fmt.Fprintln(stdout, line)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(stderr, "benchgate: REGRESSION %s\n", r)
		}
		return errors.New("deliberate slowdowns re-baseline with `make bench-rebaseline` and commit the new BENCH.txt")
	}
	fmt.Fprintf(stdout, "benchgate: ok (%d benchmarks, median ns/op within %.1fx of %s)\n", len(base.nsPerOp), *ratio, fs.Arg(0))
	return nil
}

// benchRun is one parsed `go test -bench` output.
type benchRun struct {
	nsPerOp map[string][]float64 // "pkg.BenchmarkName[/sub]" -> one sample per repeated line
	procs   string               // the -N suffix of the benchmark lines ("1" when absent)
}

// parse reads benchmark result lines, `BenchmarkX[-N] <iterations> <value>
// <unit> ...` under the latest `pkg:` header, and keeps the ns/op pair of
// each. Anything else is skipped, except a FAIL line, which is an error: a
// run that failed must not read as a run with fewer benchmarks.
func parse(text string) (*benchRun, error) {
	out := &benchRun{nsPerOp: map[string][]float64{}, procs: "1"}
	pkg := ""
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "FAIL" || f[0] == "---" && len(f) > 1 && f[1] == "FAIL:":
			return nil, fmt.Errorf("the run failed: %q", line)
		case f[0] == "pkg:" && len(f) == 2:
			pkg = f[1]
		case strings.HasPrefix(f[0], "Benchmark") && len(f) >= 4:
			if _, err := strconv.Atoi(f[1]); err != nil {
				continue
			}
			name := f[0]
			if i := strings.LastIndexByte(name, '-'); i >= 0 {
				if _, err := strconv.Atoi(name[i+1:]); err == nil {
					name, out.procs = name[:i], name[i+1:]
				}
			}
			for i := 2; i+1 < len(f); i += 2 {
				if v, err := strconv.ParseFloat(f[i], 64); err == nil && f[i+1] == "ns/op" {
					key := pkg + "." + name
					out.nsPerOp[key] = append(out.nsPerOp[key], v)
				}
			}
		}
	}
	if len(out.nsPerOp) == 0 {
		return nil, fmt.Errorf("no benchmark lines")
	}
	return out, nil
}

// median is the statistic compared: of a key's repeated samples, an even
// count taking the mean of the middle two.
func median(samples []float64) float64 { return stats.Quantile(samples, 0.5) }

// compare applies the rules in the package comment. report has one line per
// key, for the CI log.
func compare(base, fresh map[string][]float64, ratio, minBaseline float64) (regressions, report []string) {
	for k, samples := range base {
		b := median(samples)
		if len(fresh[k]) == 0 {
			regressions = append(regressions, k+": in the baseline, missing from the fresh run")
			continue
		}
		f := median(fresh[k])
		verdict := "ok"
		switch {
		case b < minBaseline:
			verdict = "not gated, under the noise floor"
		case f > b*ratio:
			verdict = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: baseline %.0f ns/op -> fresh %.0f ns/op (%.2fx > %.1fx)", k, b, f, f/b, ratio))
		}
		report = append(report, fmt.Sprintf("%-72s %12.1f -> %12.1f ns/op  %5.2fx  %s", k, b, f, f/b, verdict))
	}
	for k, samples := range fresh {
		if len(base[k]) == 0 {
			report = append(report, fmt.Sprintf("%-72s new: not in the baseline, not gated (%.1f ns/op)", k, median(samples)))
		}
	}
	sort.Strings(regressions)
	sort.Strings(report)
	return regressions, report
}

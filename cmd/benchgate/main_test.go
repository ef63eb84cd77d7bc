package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
)

// bench renders `go test -bench` output for one package: a header, one line
// per ns/op value under name, and the trailing PASS/ok lines.
func bench(pkg, name string, nsPerOp ...float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "goos: linux\ngoarch: amd64\npkg: %s\ncpu: Intel(R) Xeon(R) Processor @ 2.10GHz\n", pkg)
	for _, v := range nsPerOp {
		fmt.Fprintf(&b, "%s   \t  108854\t     %v ns/op\t       0 B/op\t       0 allocs/op\n", name, v)
	}
	fmt.Fprintf(&b, "PASS\nok  \t%s\t15.032s\n", pkg)
	return b.String()
}

func TestParse(t *testing.T) {
	tests := []struct {
		name, text string
		want       map[string]float64 // key -> median
		procs      string
		wantErr    string
	}{
		{
			name: "same name in two packages stays two keys",
			text: bench("m/a", "BenchmarkPut-2", 100) + bench("m/b", "BenchmarkPut-2", 300),
			want: map[string]float64{"m/a.BenchmarkPut": 100, "m/b.BenchmarkPut": 300}, procs: "2",
		},
		{
			name: "sub-benchmark, ReportMetric and -benchmem columns; ns/op found wherever it sits",
			text: "pkg: m/risk\n" +
				"BenchmarkAssessCold/scenarios=400-2 \t 1819\t 597988 ns/op\t 30.00 routed/op\t 106197 B/op\t 969 allocs/op\n" +
				"BenchmarkOdd-2 \t 10\t 7.250 resimulated/op\t 1500 ns/op\n",
			want: map[string]float64{"m/risk.BenchmarkAssessCold/scenarios=400": 597988, "m/risk.BenchmarkOdd": 1500}, procs: "2",
		},
		{
			name: "no -N suffix at GOMAXPROCS=1, and a trailing -word is part of the name",
			text: "pkg: m\nBenchmarkA 5 10 ns/op\nBenchmarkB/size-big 5 20 ns/op\n",
			want: map[string]float64{"m.BenchmarkA": 10, "m.BenchmarkB/size-big": 20}, procs: "1",
		},
		{name: "one repeat", text: bench("m", "BenchmarkA-4", 7), want: map[string]float64{"m.BenchmarkA": 7}, procs: "4"},
		{name: "four repeats: mean of the middle two", text: bench("m", "BenchmarkA-4", 40, 10, 30, 20), want: map[string]float64{"m.BenchmarkA": 25}, procs: "4"},
		{name: "five repeats: the middle one, outlier ignored", text: bench("m", "BenchmarkA-4", 279, 633, 409, 307, 289), want: map[string]float64{"m.BenchmarkA": 307}, procs: "4"},
		{
			name: "blank, log and garbage lines are skipped",
			text: "\n\n   \npkg:\npkg: m\nBenchmarkLogs-2\n    bench_test.go:12: warming up\nBenchmarkLogs-2 \t 5 \t 10 ns/op\n" +
				"BenchmarkTorn-2 \t 5 \t 10\nBenchmarkNaN-2 x y ns/op\nBenchmarkNoNs-2 5 12 B/op\n--- BENCH: BenchmarkLogs-2\n\x00\xff ns/op -- \nok m 1s\n",
			want: map[string]float64{"m.BenchmarkLogs": 10}, procs: "2",
		},
		{name: "FAIL line", text: bench("m", "BenchmarkA-2", 1) + "FAIL\tm/b\t0.2s\nFAIL\n", wantErr: "the run failed"},
		{name: "failed benchmark", text: "pkg: m\n--- FAIL: BenchmarkA-2\n    x_test.go:3: boom\n" + bench("m", "BenchmarkB-2", 1), wantErr: "the run failed"},
		{name: "no benchmark lines", text: "PASS\nok  \tm\t0.1s\n", wantErr: "no benchmark lines"},
		{name: "empty", text: "", wantErr: "no benchmark lines"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse(tc.text)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.procs != tc.procs {
				t.Errorf("procs = %q, want %q", got.procs, tc.procs)
			}
			if len(got.nsPerOp) != len(tc.want) {
				t.Errorf("keys = %v, want %v", got.nsPerOp, tc.want)
			}
			for k, want := range tc.want {
				if len(got.nsPerOp[k]) == 0 {
					t.Errorf("key %q missing from %v", k, got.nsPerOp)
				} else if m := median(got.nsPerOp[k]); m != want {
					t.Errorf("median(%q) = %v, want %v", k, m, want)
				}
			}
		})
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name        string
		base, fresh string
		regressions []string // a substring of each expected regression, in order
		report      []string // substrings the report must contain
	}{
		{name: "unchanged", base: bench("m", "BenchmarkA-2", 5000), fresh: bench("m", "BenchmarkA-2", 5000), report: []string{"m.BenchmarkA", "1.00x  ok"}},
		{name: "-2 baseline lines up with a -4 fresh run", base: bench("m", "BenchmarkA-2", 5000), fresh: bench("m", "BenchmarkA-4", 6000), report: []string{"1.20x  ok"}},
		{name: "exactly 2.0x passes", base: bench("m", "BenchmarkA-2", 5000), fresh: bench("m", "BenchmarkA-2", 10000)},
		{name: "2.01x fails", base: bench("m", "BenchmarkA-2", 5000), fresh: bench("m", "BenchmarkA-2", 10050), regressions: []string{"m.BenchmarkA: baseline 5000 ns/op -> fresh 10050 ns/op (2.01x > 2.0x)"}},
		{name: "faster without limit passes", base: bench("m", "BenchmarkA-2", 5000), fresh: bench("m", "BenchmarkA-2", 1)},
		{name: "baseline under the floor is not gated", base: bench("m", "BenchmarkA-2", 999), fresh: bench("m", "BenchmarkA-2", 99900), report: []string{"under the noise floor"}},
		{name: "baseline at the floor is gated", base: bench("m", "BenchmarkA-2", 1000), fresh: bench("m", "BenchmarkA-2", 2001), regressions: []string{"m.BenchmarkA"}},
		{name: "the median is compared, not the worst sample", base: bench("m", "BenchmarkA-2", 5000, 5100, 4900, 5000, 5050), fresh: bench("m", "BenchmarkA-2", 5000, 30000, 5100, 4900, 12000)},
		{
			name:        "missing from fresh fails, even under the floor; new in fresh is listed",
			base:        bench("m", "BenchmarkGone-2", 50) + bench("m/b", "BenchmarkKept-2", 5000),
			fresh:       bench("m/b", "BenchmarkKept-2", 5000) + bench("m/b", "BenchmarkNew-2", 9e9),
			regressions: []string{"m.BenchmarkGone: in the baseline, missing from the fresh run"},
			report:      []string{"m/b.BenchmarkNew", "new: not in the baseline"},
		},
		{
			name: "same name in another package does not stand in for a missing one",
			base: bench("m/a", "BenchmarkPut-2", 5000), fresh: bench("m/b", "BenchmarkPut-2", 5000),
			regressions: []string{"m/a.BenchmarkPut: in the baseline, missing"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			base, err := parse(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := parse(tc.fresh)
			if err != nil {
				t.Fatal(err)
			}
			regressions, report := compare(base.nsPerOp, fresh.nsPerOp, 2, 1000)
			if len(regressions) != len(tc.regressions) {
				t.Fatalf("regressions = %q, want %d", regressions, len(tc.regressions))
			}
			for i, want := range tc.regressions {
				if !strings.Contains(regressions[i], want) {
					t.Errorf("regression %d = %q, want it to contain %q", i, regressions[i], want)
				}
			}
			for _, want := range tc.report {
				if !strings.Contains(strings.Join(report, "\n"), want) {
					t.Errorf("report lacks %q:\n%s", want, strings.Join(report, "\n"))
				}
			}
		})
	}
}

// TestCommittedBaselineParses ties the committed BENCH.txt to the Makefile's
// BENCH_GATE list and that list to the Benchmark functions in the source, the
// way TestVetMetricNames ties metric names to call sites: a benchmark renamed,
// or added to the list, without `make bench-rebaseline` fails here, in
// tier-1, not only in the bench-regress leg.
func TestCommittedBaselineParses(t *testing.T) {
	text, err := os.ReadFile("../../BENCH.txt")
	if err != nil {
		t.Fatal(err)
	}
	base, err := parse(string(text))
	if err != nil {
		t.Fatalf("BENCH.txt: %v", err)
	}
	recorded := map[string]bool{}
	for k, samples := range base.nsPerOp {
		if len(samples) < 5 {
			t.Errorf("BENCH.txt has %d samples of %s, want >= 5 (write it with `make bench-rebaseline`)", len(samples), k)
		}
		name := k[strings.LastIndex(k, ".Benchmark")+1:]
		recorded[strings.SplitN(name, "/", 2)[0]] = true
	}

	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	gate := regexp.MustCompile(`(?m)^BENCH_GATE := (.+)$`).FindSubmatch(mk)
	pkgs := regexp.MustCompile(`(?m)^BENCH_GATE_PKGS := (.+)$`).FindSubmatch(mk)
	if gate == nil || pkgs == nil {
		t.Fatal("Makefile defines no BENCH_GATE := pattern or no BENCH_GATE_PKGS := list")
	}
	defined := map[string]bool{}
	benchFunc := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	for _, dir := range strings.Fields(string(pkgs[1])) {
		files, err := filepath.Glob(filepath.Join("../..", dir, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("BENCH_GATE_PKGS names %s: no test files (%v)", dir, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range benchFunc.FindAllSubmatch(src, -1) {
				defined[string(m[1])] = true
			}
		}
	}
	for _, alt := range strings.Split(string(gate[1]), "|") {
		if !defined[alt] {
			t.Errorf("Makefile BENCH_GATE names %q, which no package in BENCH_GATE_PKGS defines", alt)
		}
		if !recorded[alt] {
			t.Errorf("Makefile BENCH_GATE names %q, which BENCH.txt does not record: run `make bench-rebaseline`", alt)
		}
	}
	for name := range recorded {
		if !defined[name] {
			t.Errorf("BENCH.txt records %q, which no package in BENCH_GATE_PKGS defines any more: run `make bench-rebaseline`", name)
		}
	}
}

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "benchgate", run) }

// TestRun drives the gate end to end: exit 0 within the ratio, 1 on a
// regression or an unreadable file, 2 on a usage error.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.txt", bench("m/a", "BenchmarkPut-2", 2000, 2000, 2000))
	same := write("same.txt", bench("m/a", "BenchmarkPut-4", 2100, 2100, 2100))
	slow := write("slow.txt", bench("m/a", "BenchmarkPut-2", 5000, 5000, 5000))
	for _, tc := range []struct {
		args []string
		code int
		want string // in stdout
	}{
		{[]string{base, same}, 0, "benchgate: ok (1 benchmarks, median ns/op within 2.0x of " + base + ")"},
		{[]string{base, same}, 0, "baseline ran at GOMAXPROCS=2, fresh at GOMAXPROCS=4"},
		{[]string{base, slow}, 1, "REGRESSION"},
		{[]string{"-ratio", "3", base, slow}, 0, "benchgate: ok"},
		{[]string{base, filepath.Join(dir, "missing.txt")}, 1, ""},
		{[]string{base}, 2, ""},
		{[]string{"-ratio", "two", base, same}, 2, ""},
	} {
		var stdout bytes.Buffer
		err := run(context.Background(), tc.args, &stdout, io.Discard)
		if got := cli.ExitCode(err); got != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("benchgate %q: exit %d (%v), want %d; stdout:\n%s", tc.args, got, err, tc.code, stdout.String())
		}
	}
}

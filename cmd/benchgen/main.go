// Command benchgen regenerates every figure of the paper's evaluation and
// prints the series the figures are drawn from, either as aligned text or as
// CSV files (one per figure) under -csv DIR.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/contract"
	"entitlement/internal/experiments"
)

func main() { cli.Main("benchgen", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("benchgen", stderr)
	figure := fs.String("figure", "", "only regenerate figures whose name contains this substring")
	csvDir := fs.String("csv", "", "write one CSV per figure into this directory")
	points := fs.Int("points", 12, "series points to print per curve (text mode)")
	scale := cli.OneOf(fs, "scale", "full", "experiment scale", "small", "full")
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}

	drillScale := experiments.DefaultDrillScale()
	if *scale == "small" {
		drillScale = experiments.DrillScale{Hosts: 16, StageTicks: 30}
	}

	all := []func() *experiments.Result{
		func() *experiments.Result { return experiments.ServiceDistribution(contract.ClassA, 60) },
		func() *experiments.Result { return experiments.ServiceDistribution(contract.ClassB, 60) },
		func() *experiments.Result { return experiments.StoragePatterns(7) },
		experiments.MisbehavingSpike,
		experiments.InducedLoss,
		func() *experiments.Result { return experiments.SourceConcentration(8) },
		func() *experiments.Result { return experiments.DrillLoss(drillScale) },
		func() *experiments.Result { return experiments.DrillRate(drillScale) },
		func() *experiments.Result { return experiments.DrillRTT(drillScale) },
		func() *experiments.Result { return experiments.DrillSYN(drillScale) },
		func() *experiments.Result { return experiments.DrillReadLatency(drillScale) },
		func() *experiments.Result { return experiments.DrillWriteLatency(drillScale) },
		func() *experiments.Result { return experiments.DrillBlockErrors(drillScale) },
		func() *experiments.Result { return experiments.ForecastAccuracy(contract.ClassA, 24, 3) },
		func() *experiments.Result { return experiments.ForecastAccuracy(contract.ClassB, 24, 4) },
		func() *experiments.Result { return experiments.SegmentedHoseEfficiency(12, 6, 250, 4000, 11) },
		func() *experiments.Result { return experiments.CoverageVsTMs(6, 400, 4000, 13) },
		func() *experiments.Result { return experiments.ApprovalVsSLO(200, 17) },
		experiments.StatelessInstant,
		experiments.StatelessAverage,
		experiments.StatefulConvergence,
		func() *experiments.Result { return experiments.AblationRemarkPolicy(drillScale) },
		func() *experiments.Result { return experiments.AblationMeter(drillScale) },
		func() *experiments.Result { return experiments.AblationSegments(19) },
		experiments.AblationReservation,
		func() *experiments.Result { return experiments.AblationArchitecture(1000, 5000, 23) },
		func() *experiments.Result { return experiments.AblationGenerations(10, 29) },
		func() *experiments.Result { return experiments.AblationJointRealizations(31) },
	}

	for _, run := range all {
		r := run()
		if *figure != "" && !strings.Contains(r.Name, *figure) {
			continue
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, r); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(*csvDir, r.Name+".csv"))
			continue
		}
		printResult(stdout, r, *points)
	}
	return nil
}

func printResult(w io.Writer, r *experiments.Result, points int) {
	fmt.Fprintf(w, "=== %s — %s\n", r.Name, r.Caption)
	keys := make([]string, 0, len(r.Headline))
	for k := range r.Headline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "    %-36s %g\n", k, r.Headline[k])
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %s:\n", s.Label)
		n := len(s.X)
		step := 1
		if points > 0 && n > points {
			step = n / points
		}
		var sb strings.Builder
		for i := 0; i < n; i += step {
			fmt.Fprintf(&sb, " (%.4g, %.4g)", s.X[i], s.Y[i])
		}
		if (n-1)%step != 0 {
			fmt.Fprintf(&sb, " (%.4g, %.4g)", s.X[n-1], s.Y[n-1])
		}
		fmt.Fprintf(w, "   %s\n", strings.TrimSpace(sb.String()))
	}
	fmt.Fprintln(w)
}

func writeCSV(dir string, r *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, r.Name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# %s\n", r.Caption)
	for _, s := range r.Series {
		fmt.Fprintf(f, "series,%q\n", s.Label)
		for i := range s.X {
			fmt.Fprintf(f, "%g,%g\n", s.X[i], s.Y[i])
		}
	}
	return nil
}

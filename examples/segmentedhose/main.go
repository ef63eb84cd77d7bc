// Segmented hose walkthrough: reproduces the paper's Figure 6 example and
// then runs Algorithm 1 on time-varying traffic to find a segmentation
// automatically.
//
//	go run ./examples/segmentedhose
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/hose"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// --- Part 1: the Figure 6 worked example. ----------------------------
	// Ads in region A forecasts 300G to B, 100G to C, 250G to D and E.
	pipes := []hose.PipeRequest{
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "B", Rate: 300e9},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "C", Rate: 100e9},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "D", Rate: 250e9},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "E", Rate: 250e9},
	}
	fmt.Fprintln(w, "Figure 6 example — Ads egress from region A:")
	fmt.Fprintf(w, "  pipe model reserves      %6.0fG (no flexibility)\n", hose.PipeReserved(pipes)/1e9)

	hoses := hose.AggregatePipes(pipes)
	var egress hose.Request
	for _, h := range hoses {
		if h.Region == "A" && h.Direction == contract.Egress {
			egress = h
		}
	}
	fmt.Fprintf(w, "  general hose reserves    %6.0fG (full flexibility, 4x cost)\n",
		hose.GeneralHoseReserved(&egress, 4)/1e9)

	segmented := egress
	segmented.Segments = []hose.Segment{
		{Targets: []topology.Region{"B", "C"}, Alpha: 400.0 / 900},
		{Targets: []topology.Region{"D", "E"}, Alpha: 500.0 / 900},
	}
	fmt.Fprintf(w, "  segmented hose reserves  %6.0fG (traffic moves freely within {B,C} and {D,E})\n",
		hose.SegmentedReserved(&segmented)/1e9)

	// --- Part 2: Algorithm 1 on observed traffic. -------------------------
	// The service's compute lives near B and C, its storage near D and E:
	// traffic shifts within each group over time but the group totals are
	// stable, which is exactly what segmentation exploits.
	fmt.Fprintln(w, "\nAlgorithm 1 on time-varying per-destination traffic:")
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(vals ...float64) *timeseries.Series {
		return timeseries.New(start, time.Hour, vals)
	}
	perDst := map[topology.Region]*timeseries.Series{
		"B": mk(300e9, 150e9, 320e9, 180e9),
		"C": mk(100e9, 250e9, 80e9, 220e9), // anti-correlated with B
		"D": mk(250e9, 120e9, 260e9, 140e9),
		"E": mk(250e9, 380e9, 240e9, 360e9), // anti-correlated with D
	}
	seg1, seg2, err := hose.TwoSegments(perDst)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  segment 1: %v with alpha %.3f\n", seg1.Targets, seg1.Alpha)
	fmt.Fprintf(w, "  segment 2: %v with alpha %.3f\n", seg2.Targets, seg2.Alpha)

	auto := egress
	auto.Segments = []hose.Segment{seg1, seg2}
	fmt.Fprintf(w, "  reserved: %6.0fG vs %6.0fG general (%.0f%% saved)\n",
		hose.SegmentedReserved(&auto)/1e9, hose.GeneralHoseReserved(&egress, 4)/1e9,
		100*(1-hose.SegmentedReserved(&auto)/hose.GeneralHoseReserved(&egress, 4)))

	// --- Part 3: coverage — why approval gets cheaper. --------------------
	regions := []topology.Region{"B", "C", "D", "E"}
	samplesOf := func(h hose.Request) []hose.TM {
		s := hose.NewSampler(h, regions, 42)
		out := make([]hose.TM, 300)
		for i := range out {
			out[i] = s.Interior()
		}
		return out
	}
	genTMs := hose.TMsForCoverage(hose.NewSampler(egress, regions, 7), samplesOf(egress), 0.75, 4000)
	segTMs := hose.TMsForCoverage(hose.NewSampler(auto, regions, 7), samplesOf(auto), 0.75, 4000)
	fmt.Fprintf(w, "\nrepresentative TMs for 75%% hose coverage: general %d, segmented %d (%.0f%% fewer)\n",
		genTMs, segTMs, 100*(1-float64(segTMs)/float64(genTMs)))
	return nil
}

// Capacity planning example: what happens when approval cannot grant
// everything (§4.3). The network team has two levers — negotiate demand
// (the §8 counter-proposals, searched RAILS-style for alternative asks the
// network can grant in full) or build capacity (the planner's upgrade
// recommendations). This example runs both against the same scarce backbone.
//
//	go run ./examples/capacityplanning
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/core"
	"entitlement/internal/flow"
	"entitlement/internal/granting"
	"entitlement/internal/planner"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/trace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A backbone deliberately too small for the demand.
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.Chords = 2
	topoOpts.MinCapGbps = 400
	topoOpts.MaxCapGbps = 800
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		return err
	}
	history, err := trace.GenerateDemands(trace.DefaultOntology(0), trace.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 12e12,
		Days: 100, Step: time.Hour, Seed: 2,
	})
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.MinPipeRate = 5e9
	rep, err := core.PrepareRequests(topo, history, opts)
	if err != nil {
		return err
	}
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	decs, err := granting.DecideBatch(topo, core.GrantRequests(rep.Hoses, opts, start.Unix()), granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 3,
			DefaultSLO:        0.999,
			Risk:              risk.Options{Scenarios: 40, Seed: 3},
			Seed:              4,
			Negotiation:       approval.NegotiateOptions{Enabled: true},
		},
	})
	if err != nil {
		return err
	}

	// --- The decision: the asks exceed what the network can guarantee. ----
	var requested, approved float64
	var proposals []approval.CounterProposal
	for _, d := range decs {
		for _, h := range d.Hoses {
			requested += h.Requested
			approved += h.Approved
		}
		proposals = append(proposals, d.Proposals...)
	}
	fmt.Fprintf(w, "first pass: %.1f%% of requested bandwidth approved, %d counter-proposals\n",
		100*approved/requested, len(proposals))
	for i, p := range proposals {
		if i >= 3 {
			fmt.Fprintf(w, "  ... and %d more\n", len(proposals)-3)
			break
		}
		fmt.Fprintf(w, "  %-40s asked %7.1fG, admittable %7.1fG\n",
			p.Hose.Key(), p.Hose.Rate/1e9, p.AdmittableRate/1e9)
	}

	// --- Lever 1: negotiate (§8). -----------------------------------------
	// Each counter-offer is an alternative ask the search re-approved in
	// full without degrading any other hose's full approval.
	var offers []approval.CounterProposal
	var gain float64
	for _, p := range proposals {
		if p.CounterOffer != nil {
			offers = append(offers, p)
			gain += p.CounterOffer.Rate - p.AdmittableRate
		}
	}
	fmt.Fprintf(w, "\nlever 1 — negotiate: %d counter-offers grantable in full, %.1fG beyond the admittable volume\n",
		len(offers), gain/1e9)
	for i, p := range offers {
		if i >= 3 {
			fmt.Fprintf(w, "  ... and %d more\n", len(offers)-3)
			break
		}
		fmt.Fprintf(w, "  %-40s -> %-40s at %7.1fG\n", p.Hose.Key(), p.CounterOffer.Key(), p.CounterOffer.Rate/1e9)
	}

	// --- Lever 2: build capacity (planner). --------------------------------
	// The unmet original demand drives the upgrade plan.
	var demands []flow.Demand
	for i, pf := range rep.Pipes {
		p := pf.Pipe
		demands = append(demands, flow.Demand{
			Key: fmt.Sprintf("%d/%s", i, p.Key()), Src: p.Src, Dst: p.Dst,
			Rate: p.Rate, Class: int(p.Class),
		})
	}
	planOpts := planner.Options{Scenarios: 60, Seed: 5}
	before, err := planner.Analyze(topo, demands, planOpts)
	if err != nil {
		return err
	}
	plan, after, _, err := planner.RecommendUpgrades(topo, demands, planOpts, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nlever 2 — build: %.1f%% of pipe demand admitted before upgrades\n",
		100*before.AdmittedFraction())
	for i, u := range plan {
		fmt.Fprintf(w, "  %d. upgrade %s->%s from %.0fG to %.0fG\n",
			i+1, u.Src, u.Dst, u.OldCapacity/1e9, u.NewCapacity/1e9)
	}
	fmt.Fprintf(w, "  after the plan: %.1f%% admitted\n", 100*after.AdmittedFraction())
	fmt.Fprintln(w, "\nthe contract framework makes both levers explicit: counter-offers become")
	fmt.Fprintln(w, "enforceable guarantees once accepted, and binding links become the build plan.")
	return nil
}

// Command planner analyzes which backbone links bind under failures for a
// synthetic workload and recommends an augmentation plan — the build-side
// answer when approval cannot grant everything (§4.3).
package main

import (
	"context"
	"fmt"
	"io"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/flow"
	"entitlement/internal/planner"
	"entitlement/internal/topology"
)

func main() { cli.Main("planner", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("planner", stderr)
	regions := fs.Int("regions", 8, "backbone regions")
	demandScale := fs.Float64("demand-scale", 0.35, "per-pair demand as a fraction of mean link capacity")
	upgrades := fs.Int("upgrades", 4, "maximum augmentations to plan")
	scenarios := fs.Int("scenarios", 200, "failure scenarios")
	workers := fs.Int("workers", 0, "scenario-evaluation worker goroutines (0 = all cores, 1 = serial)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}

	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = *regions
	topoOpts.Seed = *seed
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		return err
	}
	meanCap := topo.TotalCapacity() / float64(topo.NumLinks())
	names := topo.RegionsSorted()
	var demands []flow.Demand
	for i, src := range names {
		dst := names[(i+*regions/2)%len(names)] // long-haul pairs stress the core
		demands = append(demands, flow.Demand{
			Key: fmt.Sprintf("%s>%s", src, dst), Src: src, Dst: dst,
			Rate: meanCap * *demandScale, Class: i % 4,
		})
	}
	opts := planner.Options{Scenarios: *scenarios, Seed: *seed + 1, Workers: *workers}

	before, err := planner.Analyze(topo, demands, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "backbone: %d regions, %d links, mean link %.0fG\n",
		topo.NumRegions(), topo.NumLinks(), meanCap/1e9)
	fmt.Fprintf(stdout, "demand: %d long-haul pipes, %.0fG total\n", len(demands), before.TotalDemand/1e9)
	fmt.Fprintf(stdout, "before: %.1f%% admitted on average (shortfall %.0fG)\n",
		100*before.AdmittedFraction(), before.AvgShortfall/1e9)
	if len(before.Findings) > 0 {
		fmt.Fprintln(stdout, "binding links:")
		for i, f := range before.Findings {
			if i >= 5 {
				break
			}
			fmt.Fprintf(stdout, "  %s->%s (%.0fG): binds in %.0f%% of scenarios, avg shortfall %.0fG\n",
				f.Src, f.Dst, f.Capacity/1e9, 100*f.BindFraction, f.AvgShortfall/1e9)
		}
	}

	plan, after, _, err := planner.RecommendUpgrades(topo, demands, opts, *upgrades)
	if err != nil {
		return err
	}
	if len(plan) == 0 {
		fmt.Fprintln(stdout, "no upgrades needed")
		return nil
	}
	fmt.Fprintln(stdout, "\nrecommended plan:")
	for i, u := range plan {
		fmt.Fprintf(stdout, "  %d. upgrade %s->%s from %.0fG to %.0fG\n",
			i+1, u.Src, u.Dst, u.OldCapacity/1e9, u.NewCapacity/1e9)
	}
	fmt.Fprintf(stdout, "after: %.1f%% admitted on average (shortfall %.0fG)\n",
		100*after.AdmittedFraction(), after.AvgShortfall/1e9)
	return nil
}

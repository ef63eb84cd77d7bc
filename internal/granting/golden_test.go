package granting_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/core"
	"entitlement/internal/forecast"
	"entitlement/internal/granting"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/decisions-*.golden from this tree's output")

// pipelineDecisions is cmd/granting's in-process pipeline (synthetic backbone
// and workload → forecast → hoses → DecideBatch) with its flags as arguments.
func pipelineDecisions(t *testing.T, rateTbps float64, negotiate bool, workers int) string {
	t.Helper()
	const seed = 1
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.Seed = seed
	topoOpts.MinCapGbps = 4000
	topoOpts.MaxCapGbps = 12000
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		t.Fatal(err)
	}
	specs := trace.DefaultOntology(2)
	highTouch := make(map[contract.NPG]bool)
	for _, s := range specs {
		if s.HighTouch {
			highTouch[s.Name] = true
		}
	}
	ds, err := trace.GenerateDemands(specs, trace.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: rateTbps * 1e12,
		Days: 60, Step: time.Hour, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)
	opts := core.DefaultOptions()
	opts.HighTouch = highTouch
	opts.SLIKind = map[contract.NPG]forecast.SLIKind{
		"Warmstorage": forecast.SLIMaxAvg6h,
		"Coldstorage": forecast.SLIMaxAvg6h,
		"Ads":         forecast.SLIDailyP99,
	}
	opts.MinPipeRate = 1e9
	appr := approval.Options{
		RepresentativeTMs: 4,
		DefaultSLO:        0.999,
		Risk:              risk.Options{Scenarios: 60, Seed: seed + 2, Workers: workers},
		Seed:              seed + 3,
		Negotiation:       approval.NegotiateOptions{Enabled: negotiate, MaxEvals: 3},
	}
	rep, err := core.PrepareRequests(topo, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs := core.GrantRequests(rep.Hoses, opts, start.Unix())
	decs, err := granting.DecideBatch(topo, reqs, granting.Options{Approval: appr})
	if err != nil {
		t.Fatal(err)
	}
	return granting.FormatDecisions(decs)
}

// TestParentDecisionGolden pins the decisions of cmd/granting's pipeline to
// what the commit before the one-scenario-engine change (bca8050) printed, in
// an abundant configuration (everything approved) and a scarce one (hoses
// under-approved, counter-proposal search on): the engine may change how it
// samples, classes and routes, never what it decides.
func TestParentDecisionGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rateTbps  float64
		negotiate bool
	}{
		{"abundant", 30, false},
		{"scarce", 70, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "decisions-"+tc.name+".golden")
			got := pipelineDecisions(t, tc.rateTbps, tc.negotiate, 2)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("decisions differ from %s (written by the parent commit)\n--- got ---\n%s", path, got)
			}
		})
	}
}

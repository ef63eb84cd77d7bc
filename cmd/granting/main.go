// Command granting runs the entitlement-granting pipeline (§3.2 steps 1–3)
// on a synthetic WAN and workload: demand forecast → segmented-hose contract
// representation → SLO-aware admission. The decision itself goes through
// internal/granting — the same code path grantd serves online — so the batch
// output here is byte-identical to what a grantd with the same configuration
// decides; -submit routes the prepared requests to a running grantd instead
// of deciding in-process.
//
// Usage:
//
//	granting [-regions N] [-tail N] [-days N] [-rate Tbps] [-slo X] [-workers N] [-seed N] [-submit addr] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/core"
	"entitlement/internal/forecast"
	"entitlement/internal/granting"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/trace"
	"entitlement/internal/wire"
)

func main() {
	regions := flag.Int("regions", 6, "backbone regions")
	tail := flag.Int("tail", 20, "long-tail services beyond the dominant ones")
	days := flag.Int("days", 120, "days of demand history to synthesize")
	rateTbps := flag.Float64("rate", 20, "aggregate WAN demand in Tbps")
	slo := flag.Float64("slo", 0.999, "default availability SLO")
	scenarios := flag.Int("scenarios", 100, "risk-simulation failure scenarios")
	workers := flag.Int("workers", 0, "risk-simulation worker goroutines (0 = all cores, 1 = serial)")
	seed := flag.Int64("seed", 1, "random seed")
	traceFile := flag.String("trace", "", "CSV traffic history (npg,class,src,dst,offset_seconds,bits_per_second) instead of synthetic demand")
	submit := flag.String("submit", "", "grantd address: submit the prepared requests instead of deciding in-process")
	codecName := flag.String("codec", "binary", "wire codec to offer grantd with -submit: binary (falls back to json against old servers) or json")
	flag.Parse()

	codec, err := wire.ParseCodec(*codecName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "granting: %v\n", err)
		os.Exit(2)
	}

	if err := run(*regions, *tail, *days, *rateTbps, *slo, *scenarios, *workers, *seed, *traceFile, *submit, codec); err != nil {
		fmt.Fprintf(os.Stderr, "granting: %v\n", err)
		os.Exit(1)
	}
}

func run(regions, tail, days int, rateTbps, slo float64, scenarios, workers int, seed int64, traceFile, submit string, codec wire.Codec) error {
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = regions
	topoOpts.Seed = seed
	topoOpts.MinCapGbps = 4000
	topoOpts.MaxCapGbps = 12000
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		return err
	}
	fmt.Printf("backbone: %d regions, %d links, %.1f Tbps total capacity\n",
		topo.NumRegions(), topo.NumLinks(), topo.TotalCapacity()/1e12)

	highTouch := make(map[contract.NPG]bool)
	var ds *trace.DemandSet
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		ds, err = trace.ReadCSV(f, trace.DefaultStart)
		f.Close()
		if err != nil {
			return err
		}
		for _, npg := range ds.NPGs() {
			highTouch[npg] = true // user-supplied traces: entitle every NPG
		}
		fmt.Printf("workload: %d flow aggregates loaded from %s\n", len(ds.Flows), traceFile)
	} else {
		specs := trace.DefaultOntology(tail)
		for _, s := range specs {
			if s.HighTouch {
				highTouch[s.Name] = true
			}
		}
		var err error
		ds, err = trace.GenerateDemands(specs, trace.MatrixOptions{
			Regions: topo.RegionsSorted(), TotalRate: rateTbps * 1e12,
			Days: days, Step: time.Hour, Seed: seed + 1,
		})
		if err != nil {
			return err
		}
		fmt.Printf("workload: %d services (%d high-touch), %d flow aggregates, %d days history\n",
			len(specs), len(highTouch), len(ds.Flows), days)
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
	gopts := granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 4,
			DefaultSLO:        contract.SLO(slo),
			Risk:              risk.Options{Scenarios: scenarios, Seed: seed + 2, Workers: workers},
			Seed:              seed + 3,
		},
		PeriodDays: forecast.QuarterDays,
	}

	// Steps 1–2: forecast and hose representation.
	t0 := time.Now()
	rep, err := core.PrepareRequests(topo, ds, opts)
	if err != nil {
		return err
	}
	reqs := core.GrantRequests(rep.Hoses, opts, start.Unix())

	// Step 3: admission — in-process or via a running grantd.
	var decs []granting.Decision
	if submit == "" {
		decs, err = granting.DecideBatch(topo, reqs, gopts)
		if err != nil {
			return err
		}
	} else {
		client, err := granting.DialOpts(submit, wire.ClientOptions{Codec: codec, Service: "granting"})
		if err != nil {
			return err
		}
		defer client.Close()
		var traceID string
		decs, traceID, err = client.SubmitWait(reqs, 5*time.Minute)
		if err != nil {
			return err
		}
		fmt.Printf("submitted as trace %s (render: sloctl trace -addr <grantd -metrics-addr> %s)\n", traceID, traceID)
	}

	// Admittable fraction keeps the Figure-22 semantics: approved volume
	// over requested volume, counting partial approvals.
	var requested, admittable float64
	contracts := 0
	for i := range decs {
		for _, h := range decs[i].Hoses {
			requested += h.Requested
			admittable += h.Approved
		}
		if decs[i].Contract != nil {
			contracts++
		}
	}
	fmt.Printf("pipeline: %d pipes -> %d hoses -> %d requests (%d contracts) in %v\n",
		len(rep.Pipes), len(rep.Hoses), len(reqs), contracts, time.Since(t0).Round(time.Millisecond))
	if requested > 0 {
		fmt.Printf("approval fraction: %.1f%%\n", 100*admittable/requested)
	}

	fmt.Print(granting.FormatDecisions(decs))
	return nil
}

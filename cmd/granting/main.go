// Command granting runs the entitlement-granting pipeline (§3.2 steps 1–3)
// on a synthetic WAN and workload: demand forecast → segmented-hose contract
// representation → SLO-aware admission. The decision itself goes through
// internal/granting — the same code path grantd serves online — so the batch
// output here is byte-identical to what a grantd with the same configuration
// decides; -submit routes the prepared requests to a running grantd instead
// of deciding in-process.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/contract"
	"entitlement/internal/core"
	"entitlement/internal/forecast"
	"entitlement/internal/granting"
	"entitlement/internal/trace"
	"entitlement/internal/wire"
)

func main() { cli.Main("granting", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("granting", stderr)
	grant := cli.GrantFlags(fs)
	tail := fs.Int("tail", 20, "long-tail services beyond the dominant ones")
	days := fs.Int("days", 120, "days of demand history to synthesize")
	rateTbps := fs.Float64("rate", 20, "aggregate WAN demand in Tbps")
	traceFile := fs.String("trace", "", "CSV traffic history (npg,class,src,dst,offset_seconds,bits_per_second) instead of synthetic demand")
	submit := fs.String("submit", "", "grantd address: submit the prepared requests instead of deciding in-process")
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}

	topo, err := grant.Backbone()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "backbone: %d regions, %d links, %.1f Tbps total capacity\n",
		topo.NumRegions(), topo.NumLinks(), topo.TotalCapacity()/1e12)

	highTouch := make(map[contract.NPG]bool)
	var ds *trace.DemandSet
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
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
		fmt.Fprintf(stdout, "workload: %d flow aggregates loaded from %s\n", len(ds.Flows), *traceFile)
	} else {
		specs := trace.DefaultOntology(*tail)
		for _, s := range specs {
			if s.HighTouch {
				highTouch[s.Name] = true
			}
		}
		var err error
		ds, err = trace.GenerateDemands(specs, trace.MatrixOptions{
			Regions: topo.RegionsSorted(), TotalRate: *rateTbps * 1e12,
			Days: *days, Step: time.Hour, Seed: grant.Seed + 1,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "workload: %d services (%d high-touch), %d flow aggregates, %d days history\n",
			len(specs), len(highTouch), len(ds.Flows), *days)
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

	// Steps 1–2: forecast and hose representation.
	t0 := time.Now()
	rep, err := core.PrepareRequests(topo, ds, opts)
	if err != nil {
		return err
	}
	reqs := core.GrantRequests(rep.Hoses, opts, start.Unix())

	// Step 3: admission — in-process or via a running grantd.
	var decs []granting.Decision
	if *submit == "" {
		decs, err = granting.DecideBatch(topo, reqs, grant.Options())
		if err != nil {
			return err
		}
	} else {
		client, err := granting.DialOpts(*submit, wire.ClientOptions{Codec: wire.CodecBinary, Service: "granting"})
		if err != nil {
			return err
		}
		defer client.Close()
		var traceID string
		decs, traceID, err = client.SubmitWait(reqs, 5*time.Minute)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "submitted as trace %s (render: sloctl trace -addr <grantd -metrics-addr> %s)\n", traceID, traceID)
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
	fmt.Fprintf(stdout, "pipeline: %d pipes -> %d hoses -> %d requests (%d contracts) in %v\n",
		len(rep.Pipes), len(rep.Hoses), len(reqs), contracts, time.Since(t0).Round(time.Millisecond))
	if requested > 0 {
		fmt.Fprintf(stdout, "approval fraction: %.1f%%\n", 100*admittable/requested)
	}

	fmt.Fprint(stdout, granting.FormatDecisions(decs))
	return nil
}

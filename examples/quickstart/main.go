// Quickstart: the whole entitlement lifecycle in one file.
//
// It builds a five-region WAN, synthesizes 90 days of traffic for two
// services, establishes entitlement contracts (forecast → segmented hose →
// SLO-aware approval), and then runs a distributed enforcement cycle showing
// the agents marking the over-entitlement service's traffic.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/core"
	"entitlement/internal/enforce"
	"entitlement/internal/granting"
	"entitlement/internal/kvstore"
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
	// 1. A small heterogeneous backbone.
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.MinCapGbps = 3000
	topoOpts.MaxCapGbps = 8000
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "backbone: %d regions, %.0f Tbps total capacity\n",
		topo.NumRegions(), topo.TotalCapacity()/1e12)

	// 2. Ninety days of synthetic history for the dominant services.
	specs := trace.DefaultOntology(0)
	history, err := trace.GenerateDemands(specs, trace.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 8e12,
		Days: 90, Step: time.Hour, Seed: 1,
	})
	if err != nil {
		return err
	}

	// 3. Establish contracts for the next quarter: forecast and hoses, one
	// decision pass, and every granted contract into the database.
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	opts := core.DefaultOptions()
	opts.MinPipeRate = 5e9
	rep, err := core.PrepareRequests(topo, history, opts)
	if err != nil {
		return err
	}
	decs, err := granting.DecideBatch(topo, core.GrantRequests(rep.Hoses, opts, start.Unix()), granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 3,
			DefaultSLO:        0.999,
			Risk:              risk.Options{Scenarios: 40, Seed: 2},
			Seed:              3,
		},
	})
	if err != nil {
		return err
	}
	db := contractdb.NewStore()
	var contracts []contract.Contract
	var requested, approved float64
	for _, d := range decs {
		for _, h := range d.Hoses {
			requested += h.Requested
			approved += h.Approved
		}
		if d.Contract != nil {
			if err := db.Put(*d.Contract); err != nil {
				return err
			}
			contracts = append(contracts, *d.Contract)
		}
	}
	fmt.Fprintf(w, "granted %d contracts (%.0f%% of requested bandwidth approved)\n",
		len(contracts), 100*approved/requested)
	for _, c := range contracts[:min(3, len(contracts))] {
		fmt.Fprintf(w, "  e.g. %s: SLO %.3f, %d entitlements\n", c.NPG, float64(c.SLO), len(c.Entitlements))
	}

	// 4. Run-time enforcement: three Coldstorage hosts sharing a rate store,
	// each with its own agent and BPF map, collectively exceeding the
	// entitlement by 2x.
	var coldRegion topology.Region
	var entitled float64
	cold, ok := db.Get("Coldstorage")
	if !ok {
		return errors.New("no Coldstorage contract")
	}
	for _, e := range cold.Entitlements {
		if e.Direction == contract.Egress && e.Rate > entitled {
			entitled, coldRegion = e.Rate, e.Region
		}
	}
	fmt.Fprintf(w, "\nenforcing Coldstorage egress in %s: entitled %.0f Gbps\n", coldRegion, entitled/1e9)

	rates := kvstore.New()
	type hostState struct {
		agent *enforce.Agent
		prog  *bpf.Program
		id    string
	}
	var hostsState []hostState
	perHost := 2 * entitled / 3 // 3 hosts × 2E/3 = 2× the entitlement
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("cold-%d", i)
		prog := bpf.NewProgram(bpf.NewMap())
		agent, err := enforce.NewAgent(enforce.AgentConfig{
			Host: id, NPG: "Coldstorage", Class: cold.Entitlements[0].Class, Region: coldRegion,
			DB: db, Rates: rates, Meter: enforce.NewStateful(), Prog: prog,
			Policy: enforce.HostBased,
		})
		if err != nil {
			return err
		}
		hostsState = append(hostsState, hostState{agent: agent, prog: prog, id: id})
	}
	now := start.Add(24 * time.Hour)
	for cycle := 0; cycle < 4; cycle++ {
		for _, h := range hostsState {
			rep, _ := h.agent.Cycle(now, perHost, perHost)
			if cycle == 3 {
				// Show the programmed kernel action and a sample packet.
				pkt := h.prog.Egress(bpf.Packet{
					NPG: "Coldstorage", Class: cold.Entitlements[0].Class,
					Region: coldRegion, Host: h.id, FlowHash: 7, Bytes: 1500,
					DSCP: bpf.DSCPForClass(cold.Entitlements[0].Class),
				})
				fmt.Fprintf(w, "  %s: ratio %.2f → %d/100 groups non-conforming; sample packet DSCP %d (%s)\n",
					h.id, rep.ConformRatio, rep.NonConformGroups, pkt.DSCP,
					map[bool]string{true: "remarked", false: "conforming"}[bpf.IsNonConforming(pkt)])
			}
		}
	}
	fmt.Fprintln(w, "\nquickstart complete: contracts granted, over-entitlement traffic marked.")
	return nil
}

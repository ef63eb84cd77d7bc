// Distributed agents example: runs the run-time enforcement system over
// real TCP sockets — a contract database server, a rate-aggregation kvstore
// server, and a fleet of enforcement agents, one per host, all in separate
// goroutines of this process. The hosts collectively exceed their service's
// entitlement; the agents converge on a common marking decision with no
// central controller (§5.1's distributed architecture).
//
//	go run ./examples/agents
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/kvstore"
)

const (
	npg     = contract.NPG("Coldstorage")
	class   = contract.C4Low
	region  = "TEST"
	hosts   = 8
	perHost = 250e9 // 8 × 250G = 2 Tbps total demand
	entRate = 1e12  // entitled to half of it
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// --- Servers. ----------------------------------------------------------
	dbStore := contractdb.NewStore()
	now := time.Now().UTC()
	err := dbStore.Put(contract.Contract{
		NPG: npg, SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: npg, Class: class, Region: region, Direction: contract.Egress,
			Rate: entRate, Start: now.Add(-time.Hour), End: now.Add(24 * time.Hour),
		}},
	})
	if err != nil {
		return err
	}
	dbL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dbSrv := contractdb.NewServer(dbL, dbStore)
	defer dbSrv.Close()

	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	kvSrv := kvstore.NewServer(kvL, kvstore.New())
	defer kvSrv.Close()

	fmt.Fprintf(w, "contractdb on %s, kvstore on %s\n", dbSrv.Addr(), kvSrv.Addr())
	fmt.Fprintf(w, "%d hosts × %.0fG = %.1fT demand vs %.1fT entitled\n\n",
		hosts, perHost/1e9, hosts*perHost/1e12, entRate/1e12)

	// --- Agents, each with its own TCP clients. -----------------------------
	type agentRun struct {
		agent *enforce.Agent
		id    string
	}
	var fleet []agentRun
	for i := 0; i < hosts; i++ {
		id := fmt.Sprintf("cold-%02d", i)
		db, err := contractdb.Dial(dbSrv.Addr())
		if err != nil {
			return err
		}
		defer db.Close()
		kv, err := kvstore.Dial(kvSrv.Addr())
		if err != nil {
			return err
		}
		defer kv.Close()
		a, err := enforce.NewAgent(enforce.AgentConfig{
			Host: id, NPG: npg, Class: class, Region: region,
			DB: db, Rates: kv, Meter: enforce.NewStateful(),
			Prog: bpf.NewProgram(bpf.NewMap()), Policy: enforce.HostBased,
			RateTTL: 30 * time.Second,
		})
		if err != nil {
			return err
		}
		fleet = append(fleet, agentRun{agent: a, id: id})
	}

	// --- Enforcement cycles: closed loop over real sockets. -----------------
	// A remarked host's conforming egress is zero; the agents discover the
	// aggregate via the shared kvstore and converge without coordination.
	conforming := make(map[string]bool, hosts)
	for _, f := range fleet {
		conforming[f.id] = true
	}
	for cycle := 1; cycle <= 8; cycle++ {
		var lastRep enforce.CycleReport
		marked := 0
		for _, f := range fleet {
			localConform := perHost
			if !conforming[f.id] {
				localConform = 0
			}
			rep, _ := f.agent.Cycle(time.Now().UTC(), perHost, localConform)
			conforming[f.id] = bpf.HostGroup(f.id) >= rep.NonConformGroups
			if !conforming[f.id] {
				marked++
			}
			lastRep = rep
		}
		fmt.Fprintf(w, "cycle %d: total %.2fT conform %.2fT ratio %.3f → %d/%d hosts remarked\n",
			cycle, lastRep.TotalRate/1e12, lastRep.ConformRate/1e12,
			lastRep.ConformRatio, marked, hosts)
	}
	fmt.Fprintln(w, "\nagents converged over live TCP with no controller in the loop.")
	return nil
}

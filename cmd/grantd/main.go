// Command grantd is the online entitlement-granting service: a long-running
// admission daemon that accepts contract requests over the wire protocol,
// decides them with Algorithm 2 plus the §8 negotiation fallback, and pushes
// granted contracts into the contract database — where running enforcement
// agents pick them up on their next cycle. This is the paper's control plane
// as a service instead of a batch run.
//
// Usage:
//
//	grantd [-addr HOST:PORT] [-contractdb ADDR] [-figure6 | -regions N] [-scenarios N] [-slo X] [-metrics-addr ADDR]
//	       [-wal-dir DIR] [-fsync none|batch|always] [-checkpoint-bytes N] [-max-queue N] [-max-queue-delay D]
//	grantd -demo
//
// With -wal-dir set, every accepted submission and decided batch is written
// to a checksummed write-ahead journal before it is acknowledged; on restart
// grantd replays the journal (tolerating a torn tail from a crash), serves
// already-decided request ids byte-identically, and re-decides in-flight
// submissions deterministically. -checkpoint-bytes is the journal bytes
// between state snapshots: the journal rotates once the records appended
// after a snapshot reach max(-checkpoint-bytes, the snapshot's own size), so
// snapshots never outweigh the log. -max-queue bounds the admission queue —
// overflow sheds with a retryable overload error carrying a retry-after
// hint — and -max-queue-delay fails requests that outlive their wait.
//
// The -demo mode runs the whole grant→store→enforce loop in one process:
// an in-memory contract database and rate store, a granting service over
// FigureSix, one submitted request, and two enforcement agents that start
// metering the granted entitlement on their next cycle.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs"
	"entitlement/internal/obs/trace"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7003", "listen address for the granting RPC")
	dbAddr := flag.String("contractdb", "", "contract database address to push granted contracts to (empty keeps an in-process store)")
	codecName := flag.String("codec", "binary", "wire codec to offer the contract database: binary (falls back to json against old servers) or json")
	figure6 := flag.Bool("figure6", false, "serve the Figure 6 five-region mesh instead of a synthetic backbone")
	regions := flag.Int("regions", 6, "synthetic backbone regions")
	seed := flag.Int64("seed", 1, "random seed (topology, TM sampling, risk scenarios)")
	scenarios := flag.Int("scenarios", 100, "risk-simulation failure scenarios")
	workers := flag.Int("workers", 0, "risk-simulation worker goroutines (0 = all cores)")
	tms := flag.Int("tms", 4, "representative traffic matrices per hose")
	slo := flag.Float64("slo", 0.999, "default availability SLO")
	periodDays := flag.Int("period-days", 0, "enforcement period length in days (0 = one quarter)")
	maxBatch := flag.Int("max-batch", 16, "max queued requests coalesced into one risk pass")
	memoMax := flag.Int("memo-max", 0, "decision-memo LRU capacity in batches (0 = default 1024)")
	negotiateSearch := flag.Bool("negotiate-search", false, "price counter-proposals with the RAILS-style local search over (rate shrink, QoS class shift) moves")
	negotiateEvals := flag.Int("negotiate-evals", 0, "max re-approval evaluations per under-approved hose in the negotiation search (0 = default 8)")
	walDir := flag.String("wal-dir", "", "write-ahead decision journal directory (empty disables durability)")
	fsync := flag.String("fsync", "", "journal fsync policy: none (OS-paced), batch (group commit: one sync per commit slot, a slot every 2 ms, and per checkpoint; observed decisions survive a crash), or always (sync per record: accepted submissions survive too) (default batch)")
	checkpointBytes := flag.Int64("checkpoint-bytes", 0, "journal bytes between snapshot checkpoints: rotate once the records after a snapshot reach max(this, the snapshot's size) (0 = default 1 MiB)")
	maxQueue := flag.Int("max-queue", 0, "admission-queue bound; submissions beyond it shed with a retryable overload error (0 = unbounded)")
	maxQueueDelay := flag.Duration("max-queue-delay", 0, "fail requests queued longer than this with a queue-timeout decision (0 = never)")
	shedRetryAfter := flag.Duration("shed-retry-after", 0, "retry-after hint attached to shed submissions (0 = default 500ms)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /grants, /healthz and /debug/pprof on this address (empty disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	demo := flag.Bool("demo", false, "run the self-contained grant→store→enforce demo and exit")
	flag.Parse()

	if *demo {
		if err := runDemo(); err != nil {
			fmt.Fprintf(os.Stderr, "grantd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grantd: %v\n", err)
		os.Exit(1)
	}

	var topo *topology.Topology
	if *figure6 {
		topo = topology.FigureSix()
	} else {
		topoOpts := topology.DefaultBackboneOptions()
		topoOpts.Regions = *regions
		topoOpts.Seed = *seed
		topoOpts.MinCapGbps = 4000
		topoOpts.MaxCapGbps = 12000
		topo, err = topology.Backbone(topoOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grantd: %v\n", err)
			os.Exit(1)
		}
	}

	codec, err := wire.ParseCodec(*codecName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grantd: %v\n", err)
		os.Exit(2)
	}

	var sink granting.Sink
	if *dbAddr != "" {
		// Lazy connect with backoff: grantd comes up even if the database
		// is still starting; store failures surface per decision.
		sink = contractdb.Connect(*dbAddr, wire.ClientOptions{Service: "grantd", Codec: codec})
	} else {
		sink = contractdb.NewStore()
	}

	opts := granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: *tms,
			DefaultSLO:        contract.SLO(*slo),
			Risk:              risk.Options{Scenarios: *scenarios, Seed: *seed + 2, Workers: *workers},
			Seed:              *seed + 3,
			Negotiation: approval.NegotiateOptions{
				Enabled:  *negotiateSearch,
				MaxEvals: *negotiateEvals,
			},
		},
		PeriodDays:     *periodDays,
		MaxBatch:       *maxBatch,
		MemoMaxEntries: *memoMax,
		MaxQueue:       *maxQueue,
		MaxQueueDelay:  *maxQueueDelay,
		ShedRetryAfter: *shedRetryAfter,
	}
	if *walDir != "" {
		policy, err := granting.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grantd: %v\n", err)
			os.Exit(1)
		}
		opts.WAL = granting.WALOptions{Dir: *walDir, Fsync: policy, CheckpointBytes: *checkpointBytes}
	}
	svc, err := granting.OpenService(topo, sink, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grantd: %v\n", err)
		os.Exit(1)
	}
	defer svc.Close()
	if *walDir != "" {
		st := svc.Stats()
		fmt.Printf("grantd recovered %d decided, %d pending from %s\n",
			st.RecoveredDecided, st.RecoveredPending, *walDir)
		logger.Info("journal recovered", "dir", *walDir,
			"decided", st.RecoveredDecided, "pending", st.RecoveredPending)
	}

	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, nil,
			obs.Route{Pattern: "/grants", Handler: svc.Handler()},
			obs.Route{Pattern: "/debug/traces", Handler: trace.Default().Handler()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "grantd: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		logger.Info("metrics serving", "addr", ms.Addr())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grantd: %v\n", err)
		os.Exit(1)
	}
	srv := granting.NewServerOpts(l, svc, wire.ServerOptions{Logger: logger})
	fmt.Printf("grantd listening on %s (%d regions, %d scenarios, default SLO %.4f)\n",
		srv.Addr(), topo.NumRegions(), *scenarios, *slo)
	logger.Info("grantd up", "addr", srv.Addr(), "regions", topo.NumRegions())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("grantd shutting down")
	logger.Info("grantd shutting down")
	srv.Close()
}

// runDemo wires the full loop in-process and narrates it.
func runDemo() error {
	topo := topology.FigureSix()
	db := contractdb.NewStore()
	rates := kvstore.New()
	svc := granting.NewService(topo, db, granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 4,
			DefaultSLO:        0.999,
			Risk:              risk.Options{Scenarios: 100, Seed: 3},
			Seed:              4,
		},
	})
	defer svc.Close()

	fmt.Println("demo: FigureSix backbone, in-process contractdb + rate store")
	// Negotiate opts into the §8 fallback: if the full ask misses the SLO
	// in some failure scenario, the grant lands at the admittable volume
	// instead of bouncing.
	req := granting.Request{
		NPG:       "Web",
		Negotiate: true,
		Hoses: []hose.Request{{
			NPG: "Web", Class: contract.C2Low, Region: "A",
			Direction: contract.Egress, Rate: 50e9,
		}},
	}
	id, err := svc.Submit(req)
	if err != nil {
		return err
	}
	dec, err := svc.Wait(id, time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("submitted Web c2_low A egress 50G -> %s\n", dec.Status)
	fmt.Print(granting.FormatDecisions([]granting.Decision{*dec}))

	if dec.Contract == nil {
		return fmt.Errorf("demo: no contract granted (status %s)", dec.Status)
	}

	// Two agents for the granted flow set begin metering on their next
	// cycle — no restart, no redeploy.
	now := time.Now().UTC()
	for i := 0; i < 2; i++ {
		host := fmt.Sprintf("demo-host-%d", i)
		agent, err := enforce.NewAgent(enforce.AgentConfig{
			Host: host, NPG: "Web", Class: contract.C2Low, Region: "A",
			DB: db, Rates: rates, Meter: enforce.NewStateful(),
			Prog: bpf.NewProgram(bpf.NewMap()), Policy: enforce.HostBased,
		})
		if err != nil {
			return err
		}
		rep, err := agent.Cycle(now, 30e9, 30e9)
		if err != nil {
			return err
		}
		fmt.Printf("agent %s: enforced=%v entitled=%.1fG service-wide rate=%.1fG\n",
			host, rep.Enforced, rep.EntitledRate/1e9, rep.TotalRate/1e9)
	}
	fmt.Println("demo complete: granted contract enforced by both agents")
	return nil
}

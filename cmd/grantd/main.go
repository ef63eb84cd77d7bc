// Command grantd is the online entitlement-granting service: a long-running
// admission daemon that accepts contract requests over the wire protocol,
// decides them with Algorithm 2 plus the §8 negotiation fallback, and pushes
// granted contracts into the contract database — where running enforcement
// agents pick them up on their next cycle. This is the paper's control plane
// as a service instead of a batch run.
//
// With -wal-dir set, every accepted submission and decided batch is written
// to a checksummed write-ahead journal before it is acknowledged; on restart
// grantd replays the journal (tolerating a torn tail from a crash), serves
// already-decided request ids byte-identically, and re-decides in-flight
// submissions deterministically.
//
// The -demo mode runs the whole grant→store→enforce loop in one process:
// an in-memory contract database and rate store, a granting service over
// FigureSix with the -seed, -scenarios, -slo, -tms and -workers given, one
// submitted request, and two enforcement agents that start metering the
// granted entitlement on their next cycle.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs"
	"entitlement/internal/wire"
)

func main() { cli.Main("grantd", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("grantd", stderr)
	addr := fs.String("addr", "127.0.0.1:7003", "listen address for the granting RPC")
	dbAddr := fs.String("contractdb", "", "contract database address to push granted contracts to (empty keeps an in-process store)")
	grant := cli.GrantFlags(fs)
	fs.BoolVar(&grant.Figure6, "figure6", false, "serve the Figure 6 five-region mesh instead of a synthetic backbone")
	fs.IntVar(&grant.TMs, "tms", grant.TMs, "representative traffic matrices per hose")
	opts := granting.Options{WAL: granting.WALOptions{Fsync: granting.FsyncBatch}}
	fs.IntVar(&opts.MaxBatch, "max-batch", 16, "max queued requests coalesced into one risk pass")
	negotiateSearch := fs.Bool("negotiate-search", false, "price counter-proposals with the RAILS-style local search over (rate shrink, QoS class shift) moves")
	fs.StringVar(&opts.WAL.Dir, "wal-dir", "", "write-ahead decision journal directory (empty disables durability)")
	fs.Func("fsync", "journal fsync policy: none (OS-paced), batch (group commit: one sync per commit slot, a slot every 2 ms, and per checkpoint; observed decisions survive a crash), or always (sync per record: accepted submissions survive too) (default batch)", func(s string) (err error) {
		opts.WAL.Fsync, err = granting.ParseFsyncPolicy(s)
		return err
	})
	fs.Int64Var(&opts.WAL.CheckpointBytes, "checkpoint-bytes", 0, "journal bytes between snapshot checkpoints: rotate once the records after a snapshot reach max(this, the snapshot's size) (0 = default 1 MiB)")
	fs.IntVar(&opts.MaxQueue, "max-queue", 0, "admission-queue bound; submissions beyond it shed with a retryable overload error (0 = unbounded)")
	fs.DurationVar(&opts.MaxQueueDelay, "max-queue-delay", 0, "fail requests queued longer than this with a queue-timeout decision (0 = never)")
	fs.DurationVar(&opts.ShedRetryAfter, "shed-retry-after", 0, "retry-after hint attached to shed submissions (0 = default 500ms)")
	d := cli.DaemonFlags(fs, true)
	demo := fs.Bool("demo", false, "run the self-contained grant→store→enforce demo and exit")
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}
	if *demo {
		g := *grant
		g.Figure6 = true
		return runDemo(stdout, g)
	}

	topo, err := grant.Backbone()
	if err != nil {
		return err
	}

	var sink granting.Sink
	if *dbAddr != "" {
		// Lazy connect with backoff: grantd comes up even if the database
		// is still starting; store failures surface per decision.
		sink = contractdb.Connect(*dbAddr, wire.ClientOptions{Service: "grantd", Codec: wire.CodecBinary})
	} else {
		sink = contractdb.NewStore()
	}

	opts.Approval = grant.Options().Approval
	opts.Approval.Negotiation.Enabled = *negotiateSearch
	svc, err := granting.OpenService(topo, sink, opts)
	if err != nil {
		return err
	}
	defer svc.Close()
	if _, err := d.Serve(obs.Route{Pattern: "/grants", Handler: svc.Handler()}); err != nil {
		return err
	}
	defer d.Close()
	logger := d.Logger()
	if opts.WAL.Dir != "" {
		st := svc.Stats()
		fmt.Fprintf(stdout, "grantd recovered %d decided, %d pending from %s\n",
			st.RecoveredDecided, st.RecoveredPending, opts.WAL.Dir)
		logger.Info("journal recovered", "dir", opts.WAL.Dir,
			"decided", st.RecoveredDecided, "pending", st.RecoveredPending)
	}
	return d.Listen(ctx, stdout, "grantd", *addr, func(l net.Listener) io.Closer {
		srv := granting.NewServerOpts(l, svc, wire.ServerOptions{Logger: logger})
		fmt.Fprintf(stdout, "grantd listening on %s (%d regions, %d scenarios, default SLO %.4f)\n",
			srv.Addr(), topo.NumRegions(), grant.Scenarios, grant.SLO)
		logger.Info("grantd up", "addr", srv.Addr(), "regions", topo.NumRegions())
		return srv
	})
}

// runDemo wires the full loop in-process and narrates it.
func runDemo(w io.Writer, g cli.Grant) error {
	topo, err := g.Backbone()
	if err != nil {
		return err
	}
	db := contractdb.NewStore()
	rates := kvstore.New()
	svc := granting.NewService(topo, db, g.Options())
	defer svc.Close()

	fmt.Fprintln(w, "demo: FigureSix backbone, in-process contractdb + rate store")
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
	fmt.Fprintf(w, "submitted Web c2_low A egress 50G -> %s\n", dec.Status)
	fmt.Fprint(w, granting.FormatDecisions([]granting.Decision{*dec}))

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
		rep, _ := agent.Cycle(now, 30e9, 30e9)
		fmt.Fprintf(w, "agent %s: enforced=%v entitled=%.1fG service-wide rate=%.1fG\n",
			host, rep.Enforced, rep.EntitledRate/1e9, rep.TotalRate/1e9)
	}
	fmt.Fprintln(w, "demo complete: granted contract enforced by both agents")
	return nil
}

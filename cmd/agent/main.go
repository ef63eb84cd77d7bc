// Command agent runs one standalone enforcement agent (Figure 9) against
// live contractdb and kvstore servers over TCP. It synthesizes this host's
// egress measurements (or reads them from a real meter in a production
// deployment), publishes rates, queries the contract, and prints each
// cycle's decision.
//
// The agent is built to outlive its control plane: it starts even when the
// servers are not up yet (connections are dialed lazily with backoff),
// every call carries a deadline, and mid-run outages degrade cycles —
// fail-static within the staleness budget, fail-open beyond it — instead
// of crashing the process.
//
// Run contractdb -demo and kvstore first (or after — the agent waits), then
// one agent per simulated host:
//
//	agent -host cold-001 -npg Coldstorage -class c4_low -region TEST \
//	      -db 127.0.0.1:7001 -kv 127.0.0.1:7002 -rate-gbps 40 -cycles 20
package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs"
	"entitlement/internal/slo"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

func main() { cli.Main("agent", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("agent", stderr)
	host := fs.String("host", "host-001", "host ID")
	npg := fs.String("npg", "Coldstorage", "network product group")
	className := fs.String("class", "c4_low", "QoS class")
	region := fs.String("region", "TEST", "source region")
	dbAddr := fs.String("db", "127.0.0.1:7001", "contractdb address")
	kvAddr := fs.String("kv", "127.0.0.1:7002", "kvstore address")
	rateGbps := fs.Float64("rate-gbps", 40, "this host's synthetic egress rate")
	period := fs.Duration("period", time.Second, "enforcement cycle period")
	cycles := fs.Int("cycles", 0, "stop after N cycles (0 = run forever)")
	policyName := cli.OneOf(fs, "policy", "host", "remark policy", "host", "flow")
	dialTimeout := fs.Duration("dial-timeout", 2*time.Second, "per-attempt dial timeout")
	callTimeout := fs.Duration("call-timeout", 2*time.Second, "per-RPC deadline")
	staleness := fs.Duration("staleness-budget", 0, "fail-static window on store outages (0 = 3x rate TTL)")
	sloReport := fs.Bool("slo-report", false, "track this contract's SLO conformance (serve /slo, print the report on exit)")
	blackboxDir := fs.String("blackbox-dir", "", "arm an incident black box in this directory: burn-rate alerts trigger a persistent capture replayable with `sloctl replay` (implies -slo-report)")
	d := cli.DaemonFlags(fs, true)
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}

	class, err := contract.ParseClass(*className)
	if err != nil {
		return err
	}
	cfg := enforce.AgentConfig{
		Host: *host, NPG: contract.NPG(*npg), Class: class, Region: topology.Region(*region),
		Meter: enforce.NewStateful(), Prog: bpf.NewProgram(bpf.NewMap()),
		Policy: enforce.HostBased, RateTTL: 10 * *period, StalenessBudget: *staleness,
	}
	if *policyName == "flow" {
		cfg.Policy = enforce.FlowBased
	}
	// The conformance engine sees only this agent's own samples (grant vs
	// usage attestation — a single segment of the contract's fleet view);
	// the network-attributed side lives with whoever aggregates delivery
	// ground truth. Real time throughout: SRE-standard windows apply.
	var eng *slo.Engine
	if *sloReport || *blackboxDir != "" {
		eng = slo.NewEngine(slo.NewRecorder(slo.DefaultRingCapacity), slo.Options{})
		cfg.Conformance = eng.Recorder()
	}
	// The incident black box arms itself on the first burn-rate fire and
	// writes a capture this agent's operator can re-drive with
	// `sloctl replay`; closed-incident envelopes are served on /slo/incidents.
	var bb *slo.Blackbox
	if *blackboxDir != "" {
		bb, err = slo.NewBlackbox(slo.BlackboxOptions{Dir: *blackboxDir, Logger: d.Logger()})
		if err != nil {
			return err
		}
		eng.AttachCapture(bb)
		cfg.Spans = bb
	}
	var routes []obs.Route
	if eng != nil {
		routes = append(routes, obs.Route{Pattern: "/slo", Handler: eng.Handler(func() time.Time {
			return time.Now().UTC()
		})})
	}
	if bb != nil {
		routes = append(routes, obs.Route{Pattern: "/slo/incidents", Handler: bb.IncidentsHandler()})
	}
	maddr, err := d.Serve(routes...)
	if err != nil {
		return err
	}
	defer d.Close()
	if maddr != "" {
		fmt.Fprintf(stdout, "metrics on http://%s/metrics (pprof on /debug/pprof/)\n", maddr)
	}
	// Lazy connections: the agent starts (and keeps running) whether or
	// not the servers are reachable; the wire layer re-dials with capped
	// backoff behind every call. The Logger surfaces per-call client spans
	// — method, request_id, took — at debug level; the request IDs match
	// the ones the servers log, so one grep follows a call end to end.
	opts := wire.ClientOptions{DialTimeout: *dialTimeout, CallTimeout: *callTimeout, Codec: wire.CodecBinary, Logger: d.Logger(), Service: *host}
	db := contractdb.Connect(*dbAddr, opts)
	defer db.Close()
	kv := kvstore.Connect(*kvAddr, opts)
	defer kv.Close()
	cfg.DB, cfg.Rates = db, kv
	agent, err := enforce.NewAgent(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "agent %s: %s/%s/%s, %s remarking, %.0f Gbps local egress (db %s, kv %s)\n",
		*host, *npg, class, *region, cfg.Policy, *rateGbps, *dbAddr, *kvAddr)
	localTotal := *rateGbps * 1e9
	localConform := localTotal
	haveObjective := false
	ctx, cancel := cli.Interruptible(ctx) // ^C ends the loop, and the report still prints
	defer cancel()
	ticker := time.NewTicker(*period)
	defer ticker.Stop()
loop:
	for n := 0; *cycles == 0 || n < *cycles; n++ {
		if n > 0 {
			select {
			case <-ctx.Done():
				break loop
			case <-ticker.C:
			}
		}
		start := time.Now()
		rep, _ := agent.Cycle(start.UTC(), localTotal, localConform) // the error is always nil
		logCycle(d.Logger(), n, time.Since(start), cfg, rep)
		mode := ""
		switch {
		case rep.FailedOpen:
			mode = " FAIL-OPEN"
		case rep.Degraded:
			mode = fmt.Sprintf(" DEGRADED(stale %s)", rep.StaleFor.Round(time.Millisecond))
		}
		// Feed the marking decision back into the synthetic measurement: if
		// this host is remarked, its conforming egress drops to zero.
		marked := "conforming"
		localConform = localTotal
		if rep.NonConformGroups > 0 && bpf.HostGroup(*host) < rep.NonConformGroups {
			marked, localConform = "REMARKED", 0
		}
		fmt.Fprintf(stdout, "cycle %3d: entitled=%.1fG total=%.1fG conform=%.1fG ratio=%.3f groups=%d enforced=%v host=%s%s\n",
			n, rep.EntitledRate/1e9, rep.TotalRate/1e9, rep.ConformRate/1e9,
			rep.ConformRatio, rep.NonConformGroups, rep.Enforced, marked, mode)
		for _, f := range rep.Faults {
			fmt.Fprintf(stderr, "cycle %3d: fault: %s\n", n, f)
		}
		if eng != nil {
			// The SLO target lives in the approval record; fetch it lazily
			// so the agent still starts when contractdb is down, and keep
			// trying until a cycle finds it.
			if !haveObjective {
				if target, ok, err := db.SLO(contract.NPG(*npg)); err == nil && ok {
					eng.SetObjective(*npg, target)
					haveObjective = true
				}
			}
			eng.Evaluate(time.Now().UTC())
		}
	}
	if eng != nil {
		fmt.Fprintf(stdout, "\n%s", eng.Report(time.Now().UTC()).Text())
	}
	return nil
}

// logCycle writes the cycle's one structured record: Debug when healthy,
// Warn when degraded or failed open. Every RPC request ID the cycle issued
// starts with its trace_id, so one grep of the kvstore and contractdb logs
// finds the cycle's calls.
func logCycle(l *slog.Logger, n int, took time.Duration, cfg enforce.AgentConfig, rep enforce.CycleReport) {
	attrs := []any{
		slog.Int("cycle_id", n),
		slog.String("host", cfg.Host),
		slog.String("npg", string(cfg.NPG)),
		slog.Duration("took", took),
		slog.String("trace_id", rep.TraceID),
		slog.Bool("enforced", rep.Enforced),
		slog.Bool("degraded", rep.Degraded),
		slog.Bool("failed_open", rep.FailedOpen),
		slog.Float64("total_rate", rep.TotalRate),
		slog.Float64("entitled_rate", rep.EntitledRate),
		slog.Float64("conform_ratio", rep.ConformRatio),
	}
	if !rep.Degraded && !rep.FailedOpen {
		l.Debug("enforce.cycle", attrs...)
		return
	}
	msg := "enforce.cycle degraded"
	if rep.FailedOpen {
		msg = "enforce.cycle fail-open"
	}
	l.Warn(msg, append(attrs,
		slog.Duration("stale_for", rep.StaleFor),
		slog.String("faults", strings.Join(rep.Faults, "; ")))...)
}

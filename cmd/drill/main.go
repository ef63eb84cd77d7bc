// Command drill runs the §6 end-to-end enforcement test: Coldstorage's
// entitled rate is cut, switch ACLs progressively drop 0/12.5/50/100% of its
// non-conforming traffic, then everything rolls back. It prints per-stage
// summaries of the network- and application-level observables (Figures
// 11–17).
//
// With -slo-report the drill feeds ground-truth delivery samples into the
// SLO conformance engine and prints the per-contract report at the end;
// the -incident-* flags blackhole a fraction of ALL drill traffic
// (conforming included) for a tick range, which shows up in the report as
// a network-attributed SLO breach.
package main

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/enforce"
	"entitlement/internal/netsim"
	"entitlement/internal/obs"
	"entitlement/internal/slo"
	"entitlement/internal/stats"
)

func main() { cli.Main("drill", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	opts := netsim.DefaultDrillOptions()
	inc := netsim.DrillIncident{SRLG: -1}
	fs := cli.FlagSet("drill", stderr)
	fs.IntVar(&opts.Hosts, "hosts", opts.Hosts, "Coldstorage hosts")
	fs.IntVar(&opts.StageTicks, "stage-ticks", opts.StageTicks, "ticks per drill stage")
	policy := cli.OneOf(fs, "policy", "host", "remark policy", "host", "flow")
	meter := cli.OneOf(fs, "meter", "stateful", "metering algorithm", "stateful", "stateless")
	series := fs.Bool("series", false, "print full per-tick series")
	sloReport := fs.Bool("slo-report", false, "track per-contract SLO conformance during the drill and print the report")
	fs.IntVar(&inc.StartTick, "incident-start", -1, "inject a network incident from this tick (-1 disables; implies -slo-report)")
	fs.IntVar(&inc.EndTick, "incident-end", -1, "incident ends before this tick")
	fs.Float64Var(&inc.DropFraction, "incident-drop", 0.5, "fraction of ALL drill traffic — conforming included — the incident blackholes")
	fs.IntVar(&inc.FailAgents, "incident-fail-agents", 0, "make the first N agents lose their control-plane dependencies for the incident window (they fail open mid-incident)")
	blackboxDir := fs.String("blackbox-dir", "", "arm an incident black box in this directory; the incident's capture is replayable with `sloctl replay` (implies -slo-report)")
	d := cli.DaemonFlags(fs, false)
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}

	if *policy == "flow" {
		opts.Policy = enforce.FlowBased
	}
	if *meter == "stateless" {
		opts.NewMeter = func() enforce.Meter { return enforce.Stateless{} }
	}
	if inc.StartTick >= 0 {
		opts.Incident = &inc
	}
	*sloReport = *sloReport || opts.Incident != nil || *blackboxDir != ""

	// simNow lets the /slo endpoint report against simulation time: the
	// drill's samples are stamped with sim-clock seconds, so evaluating
	// them against the wall clock would age every window out instantly.
	var simNow atomic.Value // time.Time of the last completed tick
	var eng *slo.Engine
	var bb *slo.Blackbox
	if *sloReport {
		// Windows compressed to the drill's one-second ticks, scaled so the
		// fast pair reacts within a stage and the slow pair spans the run.
		// With a black box attached the slow pair shrinks further: an
		// incident capture can only close once its badness ages out of the
		// slow windows, and a budget window as long as the whole run would
		// keep the box armed past the final tick — no envelope, no verdict.
		st := time.Duration(opts.StageTicks) * time.Second
		w := slo.Windows{Fast: st / 2, FastLong: st, Slow: 5 * st, SlowLong: 10 * st}
		if *blackboxDir != "" {
			w.Slow, w.SlowLong = 2*st, 4*st
		}
		eng = slo.NewEngine(slo.NewRecorder(slo.DefaultRingCapacity), slo.Options{Windows: w})
		opts.Conformance = eng
	}
	if *blackboxDir != "" {
		var err error
		bb, err = slo.NewBlackbox(slo.BlackboxOptions{Dir: *blackboxDir})
		if err != nil {
			return fmt.Errorf("blackbox: %w", err)
		}
		eng.AttachCapture(bb)
		opts.Spans = bb
		// An incident reports its blackholed link's down/up into the
		// capture, so the envelope names it (SRLG -1: in no risk group).
		inc.Links = bb
	}

	var routes []obs.Route
	if eng != nil {
		routes = append(routes, obs.Route{Pattern: "/slo", Handler: eng.Handler(func() time.Time {
			t, _ := simNow.Load().(time.Time) // zero until the drill has run
			return t
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
		fmt.Fprintf(stdout, "metrics on http://%s/metrics while the drill runs\n", maddr)
	}

	t0 := time.Now()
	rep, err := netsim.RunDrill(opts)
	if err != nil {
		return err
	}
	simNow.Store(rep.Sim.Now())
	fmt.Fprintf(stdout, "drill: %d hosts × %d flows, %s remarking, %s meter, %d ticks in %v\n\n",
		opts.Hosts, opts.FlowsPerHost, opts.Policy, *meter,
		rep.Sim.Metrics.Ticks(), time.Since(t0).Round(time.Millisecond))

	confLoss, nonLoss := rep.LossSeries()
	total, conform, entitled := rep.ServiceRates()
	confRTT, nonRTT := rep.RTTSeries()
	_, nonSYN := rep.SYNSeries()

	fmt.Fprintf(stdout, "%-22s %9s %9s | %8s %8s %8s | %8s %8s | %6s | %8s %8s %6s\n",
		"stage", "confLoss", "nonLoss", "totalG", "confG", "entG",
		"confRTTms", "nonRTTms", "SYN/t", "readMs", "writeMs", "blkErr")
	for _, s := range rep.Stages {
		lo := s.Start + (s.End-s.Start)/2
		hi := s.End
		avg := func(xs []float64) float64 { return stats.Mean(xs[lo:hi]) }
		synSum := 0
		for i := lo; i < hi; i++ {
			synSum += nonSYN[i]
		}
		var readMs, writeMs float64
		blk := 0
		for i := lo; i < hi && i < len(rep.App.Series); i++ {
			readMs += rep.App.Series[i].AvgReadLatency.Seconds() * 1000
			writeMs += rep.App.Series[i].AvgWriteLatency.Seconds() * 1000
			blk += rep.App.Series[i].BlockErrors
		}
		n := float64(hi - lo)
		fmt.Fprintf(stdout, "%-22s %8.2f%% %8.2f%% | %8.2f %8.2f %8.2f | %8.1f %8.1f | %6d | %8.1f %8.1f %6d\n",
			fmt.Sprintf("%s (drop %.1f%%)", s.Name, s.ACLDrop*100),
			100*avg(confLoss), 100*avg(nonLoss),
			avg(total)/1e9, avg(conform)/1e9, avg(entitled)/1e9,
			1000*avg(confRTT), 1000*avg(nonRTT),
			synSum/(hi-lo), readMs/n, writeMs/n, blk)
	}

	if *series {
		fmt.Fprintln(stdout, "\ntick series (total / conforming / entitled Gbps, conform ratio):")
		for i := 0; i < len(total); i += 5 {
			fmt.Fprintf(stdout, "  %4d %8.1f %8.1f %8.1f %6.3f\n",
				i, total[i]/1e9, conform[i]/1e9, entitled[i]/1e9, rep.ConformRatio[i])
		}
	}

	if eng != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, eng.Report(rep.Sim.Now()).Text())
	}
	if bb != nil {
		if caps, err := slo.ListCaptures(*blackboxDir); err == nil && len(caps) > 0 {
			fmt.Fprintf(stdout, "\nblack box: %d capture(s) in %s — inspect or re-drive with:\n", len(caps), *blackboxDir)
			fmt.Fprintf(stdout, "  go run ./cmd/sloctl replay %s\n", caps[len(caps)-1])
		}
	}

	// The drill itself finishes in well under a second, so a scraper would
	// never catch it mid-run: keep the metrics endpoint up afterwards so
	// the accumulated counters and histograms can be inspected, until ^C.
	if maddr != "" {
		fmt.Fprintf(stdout, "\ndrill done; metrics still on http://%s/metrics — ^C to exit\n", maddr)
		ctx, stop := cli.Interruptible(ctx)
		defer stop()
		<-ctx.Done()
	}
	return nil
}

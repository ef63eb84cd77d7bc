// Command drill runs the §6 end-to-end enforcement test: Coldstorage's
// entitled rate is cut, switch ACLs progressively drop 0/12.5/50/100% of its
// non-conforming traffic, then everything rolls back. It prints per-stage
// summaries of the network- and application-level observables (Figures
// 11–17).
//
// Usage:
//
//	drill [-hosts N] [-stage-ticks N] [-policy host|flow] [-meter stateful|stateless] [-series]
//	      [-slo-report] [-incident-start T -incident-end T [-incident-drop F]]
//
// With -slo-report the drill feeds ground-truth delivery samples into the
// SLO conformance engine and prints the per-contract report at the end;
// the -incident-* flags blackhole a fraction of ALL drill traffic
// (conforming included) for a tick range, which shows up in the report as
// a network-attributed SLO breach.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"entitlement/internal/enforce"
	"entitlement/internal/netsim"
	"entitlement/internal/obs"
	"entitlement/internal/slo"
	"entitlement/internal/stats"
)

func main() {
	hosts := flag.Int("hosts", 40, "Coldstorage hosts")
	stageTicks := flag.Int("stage-ticks", 60, "ticks per drill stage")
	policy := flag.String("policy", "host", "remark policy: host or flow")
	meter := flag.String("meter", "stateful", "metering algorithm: stateful or stateless")
	series := flag.Bool("series", false, "print full per-tick series")
	sloReport := flag.Bool("slo-report", false, "track per-contract SLO conformance during the drill and print the report")
	incidentStart := flag.Int("incident-start", -1, "inject a network incident from this tick (-1 disables; implies -slo-report)")
	incidentEnd := flag.Int("incident-end", -1, "incident ends before this tick")
	incidentDrop := flag.Float64("incident-drop", 0.5, "fraction of ALL drill traffic — conforming included — the incident blackholes")
	incidentFailAgents := flag.Int("incident-fail-agents", 0, "make the first N agents lose their control-plane dependencies for the incident window (they fail open mid-incident)")
	blackboxDir := flag.String("blackbox-dir", "", "arm an incident black box in this directory; the incident's capture is replayable with `sloctl replay` (implies -slo-report)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address while the drill runs (empty disables)")
	flag.Parse()

	opts := netsim.DefaultDrillOptions()
	opts.Hosts = *hosts
	opts.StageTicks = *stageTicks
	if *policy == "flow" {
		opts.Policy = enforce.FlowBased
	}
	if *meter == "stateless" {
		opts.NewMeter = func() enforce.Meter { return enforce.Stateless{} }
	}
	if *incidentStart >= 0 {
		*sloReport = true
		opts.Incident = &netsim.DrillIncident{
			StartTick: *incidentStart, EndTick: *incidentEnd, DropFraction: *incidentDrop,
			FailAgents: *incidentFailAgents,
		}
	}
	if *blackboxDir != "" {
		*sloReport = true
	}

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
		st := time.Duration(*stageTicks) * time.Second
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
			fmt.Fprintf(os.Stderr, "drill: blackbox: %v\n", err)
			os.Exit(1)
		}
		eng.AttachCapture(bb)
		opts.Spans = bb
		if opts.Incident != nil {
			// The incident reports its blackholed link's down/up into the
			// capture, so the envelope names it.
			opts.Incident.Links = bb
			opts.Incident.SRLG = -1
		}
	}

	if *metricsAddr != "" {
		var routes []obs.Route
		if eng != nil {
			routes = append(routes, obs.Route{Pattern: "/slo", Handler: eng.Handler(func() time.Time {
				if t, ok := simNow.Load().(time.Time); ok {
					return t
				}
				return time.Time{}
			})})
		}
		if bb != nil {
			routes = append(routes, obs.Route{Pattern: "/slo/incidents", Handler: bb.IncidentsHandler()})
		}
		ms, err := obs.Serve(*metricsAddr, nil, routes...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drill: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics while the drill runs\n", ms.Addr())
	}

	t0 := time.Now()
	rep, err := netsim.RunDrill(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drill: %v\n", err)
		os.Exit(1)
	}
	simNow.Store(rep.Sim.Now())
	fmt.Printf("drill: %d hosts × %d flows, %s remarking, %s meter, %d ticks in %v\n\n",
		opts.Hosts, opts.FlowsPerHost, opts.Policy, *meter,
		rep.Sim.Metrics.Ticks(), time.Since(t0).Round(time.Millisecond))

	confLoss, nonLoss := rep.LossSeries()
	total, conform, entitled := rep.ServiceRates()
	confRTT, nonRTT := rep.RTTSeries()
	_, nonSYN := rep.SYNSeries()

	fmt.Printf("%-22s %9s %9s | %8s %8s %8s | %8s %8s | %6s | %8s %8s %6s\n",
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
		fmt.Printf("%-22s %8.2f%% %8.2f%% | %8.2f %8.2f %8.2f | %8.1f %8.1f | %6d | %8.1f %8.1f %6d\n",
			fmt.Sprintf("%s (drop %.1f%%)", s.Name, s.ACLDrop*100),
			100*avg(confLoss), 100*avg(nonLoss),
			avg(total)/1e9, avg(conform)/1e9, avg(entitled)/1e9,
			1000*avg(confRTT), 1000*avg(nonRTT),
			synSum/(hi-lo), readMs/n, writeMs/n, blk)
	}

	if *series {
		fmt.Println("\ntick series (total / conforming / entitled Gbps, conform ratio):")
		for i := 0; i < len(total); i += 5 {
			fmt.Printf("  %4d %8.1f %8.1f %8.1f %6.3f\n",
				i, total[i]/1e9, conform[i]/1e9, entitled[i]/1e9, rep.ConformRatio[i])
		}
	}

	if eng != nil {
		fmt.Println()
		fmt.Print(eng.Report(rep.Sim.Now()).Text())
	}
	if bb != nil {
		if caps, err := slo.ListCaptures(*blackboxDir); err == nil && len(caps) > 0 {
			fmt.Printf("\nblack box: %d capture(s) in %s — inspect or re-drive with:\n", len(caps), *blackboxDir)
			fmt.Printf("  go run ./cmd/sloctl replay %s\n", caps[len(caps)-1])
		}
	}

	// The drill itself finishes in well under a second, so a scraper would
	// never catch it mid-run: keep the metrics endpoint up afterwards so
	// the accumulated counters and histograms can be inspected, until ^C.
	if *metricsAddr != "" {
		fmt.Printf("\ndrill done; metrics still on http://%s/metrics — ^C to exit\n", *metricsAddr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

package slo

import (
	"sort"
	"time"
)

// Envelope is the structured attribution verdict emitted when an incident
// closes: WHAT breached (contracts, segments), WHO is accountable per the
// paper's §3.3 demarcation (network vs. service), WHICH links changed state
// around it, and WHICH agents degraded or failed open while it ran. Every
// section but Capture is a pure function of the capture's records
// (verdictFold), so Replay recomputes it. It is written next to the capture
// file, appended to the capture itself as the final record, and served on
// /slo/incidents.
type Envelope struct {
	Version    int       `json:"version"`
	Generation uint64    `json:"generation"`
	ArmedAt    time.Time `json:"armed_at"`
	ClosedAt   time.Time `json:"closed_at"`
	// Trigger is the alert transition(s) that armed the capture.
	Trigger   []Transition       `json:"trigger,omitempty"`
	Contracts []EnvelopeContract `json:"contracts"`
	Network   NetworkAttribution `json:"network"`
	Agents    []AgentIncident    `json:"agents,omitempty"`
	Capture   CaptureStats       `json:"capture"`
}

// EnvelopeContract is one contract's verdict over the CAPTURE window — the
// retained pre-incident history plus everything observed while armed. The
// incident can only close once its badness has aged out of the engine's
// rolling windows (that is what clears the alerts), so close-time window
// stats are clean by construction; the capture-window aggregate is the view
// that actually describes the incident.
type EnvelopeContract struct {
	Contract string  `json:"contract"`
	SLO      float64 `json:"slo,omitempty"`
	HasSLO   bool    `json:"has_slo,omitempty"`
	// Breached reports the capture-window availability sat below the SLO —
	// the headline network-attributed damage.
	Breached bool `json:"breached,omitempty"`
	// BudgetRemaining is the error-budget fraction the capture window alone
	// would leave (1 = untouched, negative = overspent).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Availability is the capture-window availability: the minimum across
	// the contract's series, per the paper's uptime definition.
	Availability float64 `json:"availability"`
	// Segments carries the per-(segment, class) demarcation verdicts.
	Segments []SegmentVerdict `json:"segments,omitempty"`
	// NetworkThrottledRate is the mean in-entitlement bits/s the network
	// denied over the capture window — the network team's bill.
	NetworkThrottledRate float64 `json:"network_throttled_rate,omitempty"`
	// ServiceOverageRate is the mean bits/s the service offered beyond its
	// entitlement — the service team's own exposure, never an SLO breach.
	ServiceOverageRate float64 `json:"service_overage_rate,omitempty"`
}

// SegmentVerdict is one series' §3.3 demarcation call: "network" when
// in-entitlement traffic was throttled beyond tolerance (the network is
// accountable), "service" when the only anomaly was overage beyond the
// entitlement (the service is accountable), "clean" otherwise.
type SegmentVerdict struct {
	Segment       string  `json:"segment"`
	Class         string  `json:"class,omitempty"`
	Verdict       string  `json:"verdict"`
	Availability  float64 `json:"availability"`
	BadIntervals  int64   `json:"bad_intervals,omitempty"`
	OverIntervals int64   `json:"over_intervals,omitempty"`
}

// NetworkAttribution names the links whose state changed in the capture
// window — the lookback before arming and the incident itself — the change
// the incident is attributed to.
type NetworkAttribution struct {
	// Changed lists the links the capture's link records name, sorted by ID.
	Changed []LinkChange `json:"changed,omitempty"`
}

// LinkChange is one implicated link.
type LinkChange struct {
	ID   int    `json:"id"`
	Name string `json:"name"` // "SRC->DST"
	SRLG int    `json:"srlg"`
	// Disabled is the link's last recorded state — a link that was
	// blackholed and already restored reads false here; its presence in the
	// list still implicates it.
	Disabled bool `json:"disabled,omitempty"`
}

// LinkEvent is one link state change, reported by whoever makes it (netsim's
// drill blackhole). It is the capture's "link" record and the only evidence
// the envelope's network section is computed from.
type LinkEvent struct {
	At   time.Time `json:"at"`
	ID   int       `json:"id"`
	Name string    `json:"name"` // "SRC->DST"
	SRLG int       `json:"srlg"`
	Down bool      `json:"down"`
}

// LinkSink receives link state changes. The black box implements it; the
// drill holds the interface so it never imports disk machinery.
type LinkSink interface {
	RecordLink(LinkEvent)
}

// AgentIncident summarizes one host's agent behavior over the capture.
type AgentIncident struct {
	Host     string `json:"host"`
	Contract string `json:"contract,omitempty"`
	// Cycles is the number of spans captured for this host.
	Cycles int `json:"cycles"`
	// DegradedCycles ran on stale rates (fail-static).
	DegradedCycles int `json:"degraded_cycles,omitempty"`
	// FailOpenCycles ran with enforcement lifted entirely.
	FailOpenCycles int `json:"fail_open_cycles,omitempty"`
	// FirstDegraded/FirstFailOpen are zero when the host never entered the
	// respective state.
	FirstDegraded   time.Time     `json:"first_degraded"`
	FirstFailOpen   time.Time     `json:"first_fail_open"`
	FailOpenTraceID string        `json:"fail_open_trace_id,omitempty"`
	MaxStaleFor     time.Duration `json:"max_stale_for,omitempty"`
}

// CaptureStats is the capture file's own accounting, drops included.
type CaptureStats struct {
	File    string `json:"file"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	// DroppedRecords counts records withheld by the per-incident byte
	// budget or lost to write errors.
	DroppedRecords uint64 `json:"dropped_records,omitempty"`
	// DroppedSamples counts flight-recorder samples the ring overwrote
	// before the capture read them.
	DroppedSamples uint64 `json:"dropped_samples,omitempty"`
	// DroppedSpans counts spans shed by the armed buffer cap.
	DroppedSpans uint64 `json:"dropped_spans,omitempty"`
	// TruncatedHistory reports pre-arm ring history was already lost at
	// arm time; such a capture cannot replay byte-identically.
	TruncatedHistory bool `json:"truncated_history,omitempty"`
	// WriteFailed reports the capture was degraded by an I/O error.
	WriteFailed bool `json:"write_failed,omitempty"`
}

// verdictFold accumulates an incident's verdict evidence record by record:
// per-series capture-window aggregates, per-host span summaries and the last
// recorded state of every link. The live box feeds it where it produces
// records (before the byte budget is applied) and Replay feeds it the
// records it reads back; envelope is the one builder both read the verdict
// from.
type verdictFold struct {
	lossTolerance float64
	segs          map[Key]*windowAgg
	agents        map[string]*AgentIncident
	links         map[int]LinkChange
}

func newVerdictFold(lossTolerance float64) *verdictFold {
	return &verdictFold{
		lossTolerance: lossTolerance,
		segs:          make(map[Key]*windowAgg),
		agents:        make(map[string]*AgentIncident),
		links:         make(map[int]LinkChange),
	}
}

// samples folds one series' captured batch. The incident has necessarily
// aged out of the engine's rolling windows by close time (that is what lets
// the alerts clear), so close-time window stats cannot describe it — only
// this accumulation can.
func (f *verdictFold) samples(k Key, sms []Sample) {
	seg := f.segs[k]
	if seg == nil {
		seg = &windowAgg{}
		f.segs[k] = seg
	}
	for _, sm := range sms {
		seg.add(classify(sm, f.lossTolerance))
	}
}

// span folds one cycle span into its host's summary.
func (f *verdictFold) span(sp CycleSpan) {
	ai := f.agents[sp.Host]
	if ai == nil {
		ai = &AgentIncident{Host: sp.Host, Contract: sp.Contract}
		f.agents[sp.Host] = ai
	}
	ai.Cycles++
	if sp.Degraded && !sp.FailedOpen {
		ai.DegradedCycles++
		if ai.FirstDegraded.IsZero() {
			ai.FirstDegraded = sp.At
		}
	}
	if sp.FailedOpen {
		ai.FailOpenCycles++
		if ai.FirstFailOpen.IsZero() {
			ai.FirstFailOpen = sp.At
			ai.FailOpenTraceID = sp.TraceID
		}
		ai.MaxStaleFor = max(ai.MaxStaleFor, sp.StaleFor)
	}
}

// link folds one link state change; the last one recorded wins.
func (f *verdictFold) link(ev LinkEvent) {
	f.links[ev.ID] = LinkChange{ID: ev.ID, Name: ev.Name, SRLG: ev.SRLG, Disabled: ev.Down}
}

// envelope assembles the verdict of the incident meta opened and rep closed;
// Capture is left for the caller, which alone knows what the file received.
// rep supplies the contract list (and objectives), so contracts with an
// objective but no samples stay visible.
func (f *verdictFold) envelope(meta *CaptureMeta, rep *Report) *Envelope {
	env := &Envelope{
		Version:    meta.Version,
		Generation: meta.Generation,
		ArmedAt:    meta.ArmedAt,
		Trigger:    meta.Trigger,
	}
	var contracts []ContractVerdict
	if rep != nil {
		env.ClosedAt = rep.At
		contracts = rep.Contracts
	}
	for _, v := range contracts {
		ec := EnvelopeContract{
			Contract:     v.Contract,
			SLO:          v.SLO,
			HasSLO:       v.HasSLO,
			Availability: 1,
		}
		// The contract's series in deterministic (segment, class) order,
		// mirroring the engine's fold order.
		var keys []Key
		for k := range f.segs {
			if k.Contract == v.Contract {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Segment != keys[j].Segment {
				return keys[i].Segment < keys[j].Segment
			}
			return keys[i].Class < keys[j].Class
		})
		var sum windowAgg
		for _, k := range keys {
			st := *f.segs[k]
			sum.add(st)
			a := st.availability()
			// Contract availability is the MINIMUM across series, per the
			// paper's uptime definition (all in-entitlement traffic admitted).
			if a < ec.Availability {
				ec.Availability = a
			}
			sv := SegmentVerdict{
				Segment:       k.Segment,
				Class:         k.Class,
				Availability:  a,
				BadIntervals:  st.BadNetwork,
				OverIntervals: st.Over,
			}
			switch {
			case st.BadNetwork > 0:
				sv.Verdict = "network"
			case st.Over > 0:
				sv.Verdict = "service"
			default:
				sv.Verdict = "clean"
			}
			ec.Segments = append(ec.Segments, sv)
		}
		ec.Breached = ec.HasSLO && ec.Availability < ec.SLO
		ec.BudgetRemaining = 1
		if ec.HasSLO {
			ec.BudgetRemaining = 1 - burnRate(ec.Availability, ec.SLO)
		}
		if sum.Total > 0 {
			ec.NetworkThrottledRate = sum.Throttled / float64(sum.Total)
			ec.ServiceOverageRate = sum.Overage / float64(sum.Total)
		}
		env.Contracts = append(env.Contracts, ec)
	}

	for _, lc := range f.links {
		env.Network.Changed = append(env.Network.Changed, lc)
	}
	sort.Slice(env.Network.Changed, func(i, j int) bool { return env.Network.Changed[i].ID < env.Network.Changed[j].ID })

	for _, ai := range f.agents {
		env.Agents = append(env.Agents, *ai)
	}
	sort.Slice(env.Agents, func(i, j int) bool { return env.Agents[i].Host < env.Agents[j].Host })
	return env
}

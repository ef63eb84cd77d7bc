package slo

import (
	"fmt"
	"sort"
	"time"

	"entitlement/internal/topology"
)

// Envelope is the structured attribution verdict emitted when an incident
// closes: WHAT breached (contracts, segments), WHO is accountable per the
// paper's §3.3 demarcation (network vs. service), WHICH network change the
// topology mutation journal implicates, and WHICH agents degraded or failed
// open while it ran. It is written next to the capture file, appended to the
// capture itself as the final record, and served on /slo/incidents.
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

// NetworkAttribution names the topology mutations the journal recorded in
// the lookback window — the change the incident is attributed to.
type NetworkAttribution struct {
	// EpochFrom/EpochTo delimit the journal span consulted.
	EpochFrom uint64 `json:"epoch_from"`
	EpochTo   uint64 `json:"epoch_to"`
	// Changed lists links whose failure-sampling inputs, capacity, or
	// existence changed in the span, sorted by link ID.
	Changed []LinkChange `json:"changed,omitempty"`
	// DeltaTruncated reports the mutation journal no longer covered the
	// lookback span (attribution is best-effort, not authoritative).
	DeltaTruncated bool `json:"delta_truncated,omitempty"`
}

// LinkChange is one implicated link.
type LinkChange struct {
	ID   int    `json:"id"`
	Name string `json:"name"` // "SRC->DST"
	SRLG int    `json:"srlg"`
	// Disabled is the link's administrative state AT CLOSE — a link that
	// was blackholed and already restored reads false here; the journal
	// still implicates it via its presence in this list.
	Disabled        bool `json:"disabled,omitempty"`
	Added           bool `json:"added,omitempty"`
	CapacityChanged bool `json:"capacity_changed,omitempty"`
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

// buildEnvelopeLocked assembles the attribution verdict at incident close.
// Called under both the engine lock (for per-segment window stats) and the
// blackbox lock (for span aggregates and capture accounting).
func (bb *Blackbox) buildEnvelopeLocked(e *Engine, now time.Time, rep *Report) *Envelope {
	env := &Envelope{
		Version:    captureVersion,
		Generation: bb.gen,
		ClosedAt:   now,
		Capture: CaptureStats{
			File:             capNames.Path(bb.opts.Dir, bb.gen),
			Records:          bb.records,
			Bytes:            bb.bytes,
			DroppedRecords:   bb.recDrops,
			DroppedSamples:   bb.sampDrops,
			DroppedSpans:     bb.spanDrops,
			TruncatedHistory: bb.truncated,
			WriteFailed:      bb.failed,
		},
	}
	if bb.meta != nil {
		env.ArmedAt = bb.meta.ArmedAt
		env.Trigger = bb.meta.Trigger
	}

	// Per-contract verdicts come from the capture-window aggregates the
	// flush path accumulated — NOT from the close-time rolling windows,
	// which the incident has necessarily aged out of by the time the alerts
	// clear. The closing report still pins alert/hysteresis state; the
	// contract name list rides on it so un-sampled contracts with
	// objectives stay visible.
	for _, v := range rep.Contracts {
		ec := EnvelopeContract{
			Contract:     v.Contract,
			SLO:          v.SLO,
			HasSLO:       v.HasSLO,
			Availability: 1,
		}
		// The contract's series in deterministic (segment, class) order,
		// mirroring the engine's fold order.
		var keys []Key
		for k := range bb.segs {
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
			st := *bb.segs[k]
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

	env.Network = bb.networkAttributionLocked()

	for _, ai := range bb.agg {
		env.Agents = append(env.Agents, *ai)
	}
	sort.Slice(env.Agents, func(i, j int) bool { return env.Agents[i].Host < env.Agents[j].Host })
	return env
}

// networkAttributionLocked asks the topology mutation journal which links
// changed between the lookback epoch and now.
func (bb *Blackbox) networkAttributionLocked() NetworkAttribution {
	t := bb.opts.Topology
	if t == nil {
		return NetworkAttribution{}
	}
	since := uint64(0)
	if bb.meta != nil {
		since = bb.meta.TopologyEpoch
	}
	na := NetworkAttribution{EpochFrom: since, EpochTo: t.Epoch()}
	delta, ok := t.DeltaSince(since)
	if !ok {
		// The journal rotated past the lookback point. Fall back to naming
		// the links that are administratively down right now — weaker
		// evidence, flagged as such.
		na.DeltaTruncated = true
		for id := 0; id < t.NumLinks(); id++ {
			if l := t.Link(id); l.Disabled {
				na.Changed = append(na.Changed, linkChange(t, id, false, false))
			}
		}
		return na
	}
	added := make(map[int]bool, len(delta.AddedLinks))
	capTouched := make(map[int]bool, len(delta.CapTouched))
	ids := make(map[int]bool)
	for _, id := range delta.AddedLinks {
		added[id] = true
		ids[id] = true
	}
	for _, id := range delta.CapTouched {
		capTouched[id] = true
		ids[id] = true
	}
	for _, id := range delta.SampleTouched {
		ids[id] = true
	}
	ordered := make([]int, 0, len(ids))
	for id := range ids {
		ordered = append(ordered, id)
	}
	sort.Ints(ordered)
	for _, id := range ordered {
		na.Changed = append(na.Changed, linkChange(t, id, added[id], capTouched[id]))
	}
	return na
}

func linkChange(t *topology.Topology, id int, added, capTouched bool) LinkChange {
	l := t.Link(id)
	return LinkChange{
		ID:              id,
		Name:            fmt.Sprintf("%s->%s", l.Src, l.Dst),
		SRLG:            l.SRLG,
		Disabled:        l.Disabled,
		Added:           added,
		CapacityChanged: capTouched,
	}
}

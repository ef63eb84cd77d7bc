package netsim

import (
	"time"

	"entitlement/internal/contract"
)

// GroupKey buckets traffic the way the §6.1 plots do: by QoS class and by
// whether the traffic was conforming when it left the host.
type GroupKey struct {
	Class      contract.Class
	Conforming bool
}

// TickStats is one tick's aggregate for a traffic group.
type TickStats struct {
	SentRate      float64 // bits/s offered by hosts
	DeliveredRate float64 // bits/s surviving the network
	LossRatio     float64 // lost/sent (0 when nothing sent)
	AvgRTT        time.Duration
	SynSent       int // handshake attempts this tick
	SynFailed     int
	Retransmits   int
	Flows         int // flows active in the group
}

// NPGTick is one tick's per-service rates. TotalRate and ConformRate are
// what the endhosts report (the Figure 12 series); ConformDeliveredRate is
// the network's ground truth — the conforming bits that actually survived
// the fabric. ConformRate − ConformDeliveredRate is therefore in-contract
// traffic the network failed to carry: the quantity the availability SLO
// is judged on.
type NPGTick struct {
	TotalRate            float64
	ConformRate          float64
	ConformDeliveredRate float64
}

// Metrics accumulates per-tick series for every traffic group and NPG.
type Metrics struct {
	tick   time.Duration
	Groups map[GroupKey][]TickStats
	PerNPG map[contract.NPG][]NPGTick

	ticks int
	// Previous cumulative counters per flow ID, to derive per-tick deltas.
	prevSyn  map[uint64]int
	prevFail map[uint64]int
	prevRetx map[uint64]int
}

func newMetrics(tick time.Duration) *Metrics {
	return &Metrics{
		tick:     tick,
		Groups:   make(map[GroupKey][]TickStats),
		PerNPG:   make(map[contract.NPG][]NPGTick),
		prevSyn:  make(map[uint64]int),
		prevFail: make(map[uint64]int),
		prevRetx: make(map[uint64]int),
	}
}

// Ticks returns the number of recorded ticks.
func (m *Metrics) Ticks() int { return m.ticks }

func (m *Metrics) record(flows []*Flow, tick time.Duration) {
	dt := tick.Seconds()
	type agg struct {
		sent, delivered, lost float64
		rttSum                float64
		rttN                  int
		syn, fail, retx       int
		flows                 int
	}
	groups := make(map[GroupKey]*agg)
	npgs := make(map[contract.NPG]*NPGTick)
	seen := make(map[GroupKey]bool)

	for _, f := range flows {
		key := GroupKey{Class: f.Host.Class, Conforming: f.lastConforming}
		a := groups[key]
		if a == nil {
			a = &agg{}
			groups[key] = a
		}
		seen[key] = true
		a.sent += f.lastSent
		a.delivered += f.lastDelivered
		a.lost += f.lastSent - f.lastDelivered
		if f.lastSent > 0 {
			a.flows++
		}
		// RTT is only measurable on traffic that was acknowledged.
		if f.lastDelivered > 0 {
			a.rttSum += f.lastRTT
			a.rttN++
		}
		a.syn += f.SynSentCount - m.prevSyn[f.ID]
		a.fail += f.SynFailed - m.prevFail[f.ID]
		a.retx += f.Retransmits - m.prevRetx[f.ID]
		m.prevSyn[f.ID] = f.SynSentCount
		m.prevFail[f.ID] = f.SynFailed
		m.prevRetx[f.ID] = f.Retransmits

		n := npgs[f.Host.NPG]
		if n == nil {
			n = &NPGTick{}
			npgs[f.Host.NPG] = n
		}
		n.TotalRate += f.lastSent / dt
		if f.lastConforming {
			n.ConformRate += f.lastSent / dt
			n.ConformDeliveredRate += f.lastDelivered / dt
		}
	}

	// Append one entry per known group; groups not seen this tick get
	// zeros so series stay aligned.
	for key := range groups {
		if _, ok := m.Groups[key]; !ok {
			// Backfill zeros for ticks before the group first appeared.
			m.Groups[key] = make([]TickStats, m.ticks)
		}
	}
	for key, series := range m.Groups {
		a := groups[key]
		var ts TickStats
		if a != nil {
			ts = TickStats{
				SentRate:      a.sent / dt,
				DeliveredRate: a.delivered / dt,
				SynSent:       a.syn,
				SynFailed:     a.fail,
				Retransmits:   a.retx,
				Flows:         a.flows,
			}
			if a.sent > 0 {
				ts.LossRatio = a.lost / a.sent
			}
			if a.rttN > 0 {
				ts.AvgRTT = time.Duration(a.rttSum / float64(a.rttN) * float64(time.Second))
			}
		}
		m.Groups[key] = append(series, ts)
	}

	for npg := range npgs {
		if _, ok := m.PerNPG[npg]; !ok {
			m.PerNPG[npg] = make([]NPGTick, m.ticks)
		}
	}
	for npg, series := range m.PerNPG {
		var nt NPGTick
		if v := npgs[npg]; v != nil {
			nt = *v
		}
		m.PerNPG[npg] = append(series, nt)
	}
	m.ticks++
}

// Series returns the recorded series for a group (nil when never seen).
func (m *Metrics) Series(key GroupKey) []TickStats { return m.Groups[key] }

// NPGSeries returns the per-service rate series.
func (m *Metrics) NPGSeries(npg contract.NPG) []NPGTick { return m.PerNPG[npg] }

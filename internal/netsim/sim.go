// Package netsim is the synthetic WAN testbed the enforcement system is
// evaluated on, substituting for Meta's production backbone in §6's drill
// tests. It is a time-stepped fluid simulator with:
//
//   - capacity-limited links carrying eight strict-priority queues mapped
//     from packet DSCP, non-conforming traffic landing in the lowest
//     priority queue (§5.1);
//   - ACL rules that drop a configurable fraction of matching traffic,
//     mimicking congestion exactly the way the September-2021 drill did;
//   - hosts running the emulated BPF egress classifier, TCP-like flows with
//     SYN establishment, additive-increase/multiplicative-decrease rate
//     adaptation and retransmit accounting;
//   - per-tick network metrics (loss, rate, RTT, TCP stats) split by
//     conforming/non-conforming traffic — the §6.1 observables.
//
// The application layer (storage reads/writes with failover) lives in
// app.go; scenario runners for the drill and the §2.2 incidents live in
// drill.go and incident.go.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/topology"
)

// numQueues is eight class queues plus the non-conforming scavenger queue.
const numQueues = 9

// nonConformQueue is the lowest-priority queue index.
const nonConformQueue = numQueues - 1

// queueIndex maps a DSCP to its switch queue. Class DSCPs map to their
// class's queue; the non-conforming DSCP (and anything unknown) goes to the
// scavenger queue.
func queueIndex(dscp uint8) int {
	if dscp == bpf.NonConformDSCP {
		return nonConformQueue
	}
	for _, c := range contract.Classes() {
		if bpf.DSCPForClass(c) == dscp {
			return int(c)
		}
	}
	return nonConformQueue
}

// ACL is a switch rule dropping a fraction of matching traffic — the §6
// drill installs these "to mimic congestion".
type ACL struct {
	// NPG limits the rule to one service ("" matches all).
	NPG contract.NPG
	// NonConformOnly limits the rule to remarked traffic.
	NonConformOnly bool
	// DropFraction in [0, 1].
	DropFraction float64
}

// Link is one capacity-limited hop with strict-priority queues.
type Link struct {
	Name     string
	Capacity float64 // bits per second
	BaseRTT  time.Duration

	acls []ACL

	// Per-tick scratch state.
	offered  [numQueues]float64 // bits offered this tick
	fraction [numQueues]float64 // delivered fraction after serving
	delay    [numQueues]float64 // queuing delay (seconds) per queue
}

// AddACL installs a drop rule.
func (l *Link) AddACL(a ACL) { l.acls = append(l.acls, a) }

// ClearACLs removes all rules (the drill's rollback step).
func (l *Link) ClearACLs() { l.acls = nil }

func (l *Link) aclDropFraction(npg contract.NPG, nonConforming bool) float64 {
	pass := 1.0
	for _, a := range l.acls {
		if a.NPG != "" && a.NPG != npg {
			continue
		}
		if a.NonConformOnly && !nonConforming {
			continue
		}
		pass *= 1 - a.DropFraction
	}
	return 1 - pass
}

// flowState tracks TCP-like connection establishment.
type flowState int

const (
	stateSynSent flowState = iota
	stateEstablished
)

// Flow is one TCP-like aggregate from a host toward a destination region.
type Flow struct {
	ID     uint64
	Host   *Host
	Dst    topology.Region
	Path   []*Link
	Demand float64 // target rate, bits/s

	state      flowState
	rate       float64
	synBackoff int
	synStreak  int // consecutive failures, reset on establishment
	hash       uint32

	// Per-tick observations (refreshed every tick).
	lastConforming bool
	lastSent       float64 // bits
	lastDelivered  float64
	lastLossFrac   float64
	lastRTT        float64 // seconds

	// Cumulative counters.
	SentBits      float64
	DeliveredBits float64
	LostBits      float64
	SynSentCount  int
	SynFailed     int
	Retransmits   int
}

// Established reports whether the connection handshake completed.
func (f *Flow) Established() bool { return f.state == stateEstablished }

// Host is a server running the BPF egress classifier.
type Host struct {
	ID     string
	Region topology.Region
	NPG    contract.NPG
	Class  contract.Class
	Prog   *bpf.Program
	Flows  []*Flow
}

// EgressRates returns the host's (total, conforming) egress bits/s from the
// last tick — the local measurements an enforcement agent feeds its Cycle.
func (h *Host) EgressRates(tick time.Duration) (total, conform float64) {
	dt := tick.Seconds()
	for _, f := range h.Flows {
		total += f.lastSent / dt
		if f.lastConforming {
			conform += f.lastSent / dt
		}
	}
	return total, conform
}

// Options configures a simulation.
type Options struct {
	Tick  time.Duration // default 1s
	Start time.Time     // default 2026-01-01
	Seed  int64
}

// Sim is the simulator instance.
type Sim struct {
	opts  Options
	links []*Link
	hosts []*Host
	flows []*Flow
	rng   *rand.Rand

	tickIndex int
	nextFlow  uint64

	Metrics *Metrics
}

// New creates an empty simulation.
func New(opts Options) *Sim {
	if opts.Tick <= 0 {
		opts.Tick = time.Second
	}
	if opts.Start.IsZero() {
		opts.Start = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	return &Sim{
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		Metrics: newMetrics(opts.Tick),
	}
}

// Tick returns the simulation step.
func (s *Sim) Tick() time.Duration { return s.opts.Tick }

// Now returns the current simulated time.
func (s *Sim) Now() time.Time {
	return s.opts.Start.Add(time.Duration(s.tickIndex) * s.opts.Tick)
}

// AddLink registers a link.
func (s *Sim) AddLink(name string, capacity float64, baseRTT time.Duration) *Link {
	l := &Link{Name: name, Capacity: capacity, BaseRTT: baseRTT}
	s.links = append(s.links, l)
	return l
}

// AddHost registers a host with its own BPF program and action map.
func (s *Sim) AddHost(id string, region topology.Region, npg contract.NPG, class contract.Class) *Host {
	h := &Host{
		ID: id, Region: region, NPG: npg, Class: class,
		Prog: bpf.NewProgram(bpf.NewMap()),
	}
	s.hosts = append(s.hosts, h)
	return h
}

// AddFlow creates a flow from host toward dst over the given links.
func (s *Sim) AddFlow(h *Host, dst topology.Region, path []*Link, demand float64) *Flow {
	s.nextFlow++
	f := &Flow{
		ID: s.nextFlow, Host: h, Dst: dst, Path: path, Demand: demand,
		state: stateSynSent,
		rate:  demand * 0.1, // slow start stand-in
		hash:  s.rng.Uint32(),
	}
	if f.rate <= 0 {
		f.rate = 1
	}
	h.Flows = append(h.Flows, f)
	s.flows = append(s.flows, f)
	return f
}

// Hosts returns the registered hosts.
func (s *Sim) Hosts() []*Host { return s.hosts }

// Flows returns the registered flows.
func (s *Sim) Flows() []*Flow { return s.flows }

// synBits approximates a handshake packet.
const synBits = 64 * 8

// Step advances the simulation one tick: classify, offer, serve, adapt.
func (s *Sim) Step() {
	dt := s.opts.Tick.Seconds()
	// Reset link scratch.
	for _, l := range s.links {
		for q := range l.offered {
			l.offered[q] = 0
		}
	}
	type attempt struct {
		flow       *Flow
		queue      int
		bits       float64 // post-ACL offered bits
		aclDropped float64
		conforming bool
		isSyn      bool
	}
	attempts := make([]attempt, 0, len(s.flows))

	for _, f := range s.flows {
		if f.Demand <= 0 {
			f.lastSent, f.lastDelivered, f.lastLossFrac = 0, 0, 0
			continue
		}
		// Classify via the host's egress program, exactly once per tick:
		// the fluid model treats the tick's bits as one packet burst.
		pkt := bpf.Packet{
			NPG: f.Host.NPG, Class: f.Host.Class, Region: f.Host.Region,
			Host: f.Host.ID, FlowHash: f.hash,
			DSCP: bpf.DSCPForClass(f.Host.Class), Bytes: int(f.rate * dt / 8),
		}
		out := f.Host.Prog.Egress(pkt)
		conforming := !bpf.IsNonConforming(out)
		queue := queueIndex(out.DSCP)

		var bits float64
		isSyn := false
		if f.state == stateSynSent {
			if f.synBackoff > 0 {
				f.synBackoff--
				f.lastSent, f.lastDelivered, f.lastLossFrac = 0, 0, 0
				f.lastConforming = conforming
				continue
			}
			bits = synBits
			isSyn = true
			f.SynSentCount++
		} else {
			bits = f.rate * dt
		}

		// ACL drops are applied per link multiplicatively up front (the
		// fluid equivalent of dropping on ingress match).
		pass := 1.0
		for _, l := range f.Path {
			pass *= 1 - l.aclDropFraction(f.Host.NPG, !conforming)
		}
		offered := bits * pass
		for _, l := range f.Path {
			l.offered[queue] += offered
		}
		attempts = append(attempts, attempt{
			flow: f, queue: queue, bits: offered,
			aclDropped: bits - offered, conforming: conforming, isSyn: isSyn,
		})
		f.lastConforming = conforming
		f.lastSent = bits
	}

	// Serve every link: class queues share capacity by weighted max-min
	// (production switches give each QoS class a guaranteed scheduler
	// weight), and the non-conforming scavenger queue is strictly last —
	// the §5.1 property that remarked traffic "will be impacted before the
	// conforming traffic".
	for _, l := range s.links {
		capacity := l.Capacity * dt
		served := serveWeighted(l.offered[:nonConformQueue], classWeights[:], capacity)
		usedByClasses := 0.0
		for q := 0; q < nonConformQueue; q++ {
			if l.offered[q] > 0 {
				l.fraction[q] = served[q] / l.offered[q]
			} else {
				l.fraction[q] = 1
			}
			usedByClasses += served[q]
		}
		leftover := capacity - usedByClasses
		scav := l.offered[nonConformQueue]
		scavServed := scav
		if scavServed > leftover {
			scavServed = leftover
		}
		if scav > 0 {
			l.fraction[nonConformQueue] = scavServed / scav
		} else {
			l.fraction[nonConformQueue] = 1
		}
		// Queuing delay: time to drain the backlog at or above each
		// priority level, bounded by one tick of buffering.
		backlog := 0.0
		for q := 0; q < nonConformQueue; q++ {
			backlog += l.offered[q] - served[q]
			l.delay[q] = backlog / l.Capacity
			if l.delay[q] > dt {
				l.delay[q] = dt
			}
		}
		backlog += scav - scavServed
		l.delay[nonConformQueue] = backlog / l.Capacity
		if l.delay[nonConformQueue] > dt {
			l.delay[nonConformQueue] = dt
		}
	}

	// Resolve per-flow outcomes and adapt rates.
	for _, a := range attempts {
		f := a.flow
		frac := 1.0
		rtt := 0.0
		for _, l := range f.Path {
			frac *= l.fraction[a.queue]
			rtt += l.BaseRTT.Seconds() + l.delay[a.queue]
		}
		delivered := a.bits * frac
		lost := f.lastSent - delivered // includes ACL drops
		f.lastDelivered = delivered
		if f.lastSent > 0 {
			f.lastLossFrac = lost / f.lastSent
		} else {
			f.lastLossFrac = 0
		}
		// Retransmission delay inflates the measured RTT under partial loss;
		// at (near-)total loss no ACKs return, so no RTT sample exists.
		if !a.isSyn && f.lastLossFrac > 0.005 && f.lastLossFrac < 0.95 {
			rtt += f.lastLossFrac * 0.05
		}
		f.lastRTT = rtt
		f.SentBits += f.lastSent
		f.DeliveredBits += delivered
		f.LostBits += lost

		if a.isSyn {
			// Handshake succeeds with the queue's delivery probability.
			if s.rng.Float64() < frac && a.aclDropped == 0 {
				f.state = stateEstablished
				f.rate = f.Demand * 0.25
				f.synStreak = 0
			} else {
				f.SynFailed++
				f.synStreak++
				f.synBackoff = minInt(1<<uint(minInt(f.synStreak, 3)), 8)
			}
			continue
		}
		// AIMD adaptation.
		if f.lastLossFrac > 0.005 {
			f.Retransmits++
			f.rate *= 1 - 0.5*f.lastLossFrac
			if f.rate < f.Demand*0.01 {
				f.rate = f.Demand * 0.01
			}
			// Heavy persistent loss tears the connection down and forces a
			// new handshake — the drill's 100%-drop stage produces SYN
			// storms this way (Figure 14).
			if f.lastLossFrac > 0.95 {
				f.state = stateSynSent
				f.synBackoff = 1
			}
		} else {
			f.rate += 0.25 * (f.Demand - f.rate)
			if f.rate > f.Demand {
				f.rate = f.Demand
			}
		}
	}

	s.Metrics.record(s.flows, s.opts.Tick)
	s.tickIndex++
}

// classWeights are the WRR scheduler weights of the eight class queues,
// descending with priority. They only matter under contention; idle shares
// redistribute to busy queues.
var classWeights = [nonConformQueue]float64{32, 28, 24, 20, 16, 12, 8, 4}

// serveWeighted allocates capacity to queues by weighted max-min fairness:
// repeatedly grant each unsatisfied queue its weight-proportional share of
// the remaining capacity, freeing unused shares for the others.
func serveWeighted(offered []float64, weights []float64, capacity float64) []float64 {
	served := make([]float64, len(offered))
	remaining := capacity
	unsatisfied := make([]bool, len(offered))
	for q := range offered {
		unsatisfied[q] = offered[q] > 0
	}
	for iter := 0; iter < len(offered)+1 && remaining > 1e-9; iter++ {
		wSum := 0.0
		for q, u := range unsatisfied {
			if u {
				wSum += weights[q]
			}
		}
		if wSum == 0 {
			break
		}
		progress := false
		granted := 0.0
		for q, u := range unsatisfied {
			if !u {
				continue
			}
			share := remaining * weights[q] / wSum
			need := offered[q] - served[q]
			if need <= share {
				served[q] += need
				granted += need
				unsatisfied[q] = false
				progress = true
			} else {
				served[q] += share
				granted += share
			}
		}
		remaining -= granted
		if !progress {
			break
		}
	}
	return served
}

// Run advances n ticks.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// String summarizes the simulation state.
func (s *Sim) String() string {
	return fmt.Sprintf("netsim{ticks=%d links=%d hosts=%d flows=%d}",
		s.tickIndex, len(s.links), len(s.hosts), len(s.flows))
}

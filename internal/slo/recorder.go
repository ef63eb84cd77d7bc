// Package slo is the conformance plane: it turns raw per-cycle bandwidth
// samples into per-contract SLO verdicts. The paper's central promise is
// that an approved entitlement contract carries a hard availability SLO
// (§3.1: "the network provides an SLO-backed guarantee for the approved
// entitlement"); this package continuously accounts for whether each
// contract is actually receiving its entitlement.
//
// Three layers, all stdlib-only:
//
//   - a fixed-size ring-buffer flight recorder (Recorder) with lock-free
//     writes and snapshot reads, holding the most recent samples per
//     (contract, segment, class) series for forensics;
//   - a burn-rate engine (Engine) folding samples into rolling
//     multi-window availability aggregates and firing hysteresis-guarded
//     alerts, SRE-style (fast 5m/1h and slow 6h/3d window pairs);
//   - a conformance report (Report) rendering per-contract achieved
//     availability, error-budget remaining, worst segment, and throttle
//     attribution as text or JSON.
package slo

import (
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one sample series: a contract (NPG), the network segment
// the measurement covers (e.g. "TEST" for a region's ground truth, or
// "TEST/cold-003" for one host's agent view), and the QoS class.
type Key struct {
	Contract string `json:"contract"`
	Segment  string `json:"segment"`
	Class    string `json:"class"`
}

// Sample is one enforcement cycle's bandwidth accounting for a series. All
// rates are bits/s averaged over the cycle.
//
// The availability semantics follow the paper's demarcation (§3.3): the SLO
// covers in-entitlement (conforming) traffic only. A sample is "good" when
// the throttled share of in-entitlement demand stays below the engine's
// loss tolerance; Overage — traffic offered beyond the entitlement — never
// burns the network's error budget, it is the service team's own exposure.
type Sample struct {
	At time.Time `json:"at"`
	// Granted is the entitled rate in force during the cycle.
	Granted float64 `json:"granted"`
	// Used is the in-entitlement (conforming) goodput actually delivered.
	Used float64 `json:"used"`
	// Throttled is in-entitlement demand that was denied or lost — the
	// SLO-relevant damage.
	Throttled float64 `json:"throttled"`
	// Overage is traffic offered beyond the entitlement (throttle-eligible,
	// service-attributed).
	Overage float64 `json:"overage"`

	seq uint64 // write sequence, stamped by Series.Record
}

// Series is the flight-recorder ring for one Key. Writes are lock-free:
// one atomic counter claims a slot, one atomic pointer store publishes the
// whole sample. Readers never block writers; a slot overwritten mid-read
// is detected by its sequence stamp and skipped (counted as dropped by the
// engine's cursor). Hot callers should cache the *Series handle from
// Recorder.Series and call Record on it directly.
type Series struct {
	key   Key
	pos   atomic.Uint64
	slots []atomic.Pointer[Sample]
}

// Key returns the series identity.
func (s *Series) Key() Key { return s.key }

// Record appends one sample. Safe for concurrent use from any goroutine;
// the fast path is one atomic add, one pointer store, and one heap
// allocation for the sample copy (see BenchmarkSLORecord: <100ns/op).
func (s *Series) Record(sm Sample) {
	i := s.pos.Add(1) - 1
	sm.seq = i
	s.slots[i%uint64(len(s.slots))].Store(&sm)
	mSamplesRecorded.Inc()
}

// Snapshot returns the retained samples in chronological order. It is a
// consistent-enough read for forensics: each sample is read atomically
// (whole-struct via pointer), and slots overwritten while scanning are
// skipped rather than returned torn.
func (s *Series) Snapshot() []Sample {
	pos := s.pos.Load()
	capacity := uint64(len(s.slots))
	start := uint64(0)
	if pos > capacity {
		start = pos - capacity
	}
	out := make([]Sample, 0, pos-start)
	for i := start; i < pos; i++ {
		p := s.slots[i%capacity].Load()
		if p != nil && p.seq == i {
			out = append(out, *p)
		}
	}
	return out
}

// DefaultRingCapacity retains ~17 minutes of history per series at a 1s
// cycle period. Sizing math: memory per series = cap × (sample pointer +
// ~72B sample) ≈ cap × 80B, so 1024 slots ≈ 80KiB per (contract, segment,
// class) — bounded regardless of run length. Burn-rate windows do NOT read
// the ring (they fold samples into fixed bucket aggregates), so the ring
// can stay small without limiting the 3-day window.
const DefaultRingCapacity = 1024

// Recorder is the flight recorder: a set of per-Key ring buffers. The zero
// value is not usable; use NewRecorder.
type Recorder struct {
	capacity int
	series   sync.Map // Key -> *Series
}

// NewRecorder builds a recorder whose rings hold capacity samples each
// (DefaultRingCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Recorder{capacity: capacity}
}

// Capacity returns the per-series ring size.
func (r *Recorder) Capacity() int { return r.capacity }

// Series returns (creating if needed) the ring for k. The returned handle
// is stable; hot paths should cache it and skip the map lookup.
func (r *Recorder) Series(k Key) *Series {
	if v, ok := r.series.Load(k); ok {
		return v.(*Series)
	}
	s := &Series{key: k, slots: make([]atomic.Pointer[Sample], r.capacity)}
	actual, loaded := r.series.LoadOrStore(k, s)
	if loaded {
		return actual.(*Series)
	}
	mSeries.Inc()
	return s
}

// DrainFrom delivers the retained samples with sequence >= from to emit, in
// chronological order, and returns the next cursor plus the number of
// samples that were overwritten before they could be read. Both numbers
// derive from a single atomic snapshot of the writer position taken before
// any slot is read, so the overwrite accounting always agrees with the
// cursor advance: delivered + dropped == next - from, for every call, even
// while writers are lapping the ring. Two independent consumers (the
// engine's evaluation drain and an armed black-box flush) can drain the
// same series concurrently, each with its own cursor, and each sees
// internally consistent accounting — re-deriving the drop count from a
// second position load here would let a racing writer make the two numbers
// disagree (the stale-drop-count bug pinned by TestDrainDropAccountingRace).
func (s *Series) DrainFrom(from uint64, emit func(Sample)) (next uint64, dropped uint64) {
	cur := s.pos.Load()
	capacity := uint64(len(s.slots))
	start := from
	if cur > capacity && cur-capacity > start {
		// The writer lapped this cursor: the oldest unread samples are gone.
		dropped = cur - capacity - start
		start = cur - capacity
	}
	for i := start; i < cur; i++ {
		p := s.slots[i%capacity].Load()
		if p == nil || p.seq != i {
			// Overwritten between the position snapshot and this read.
			dropped++
			continue
		}
		emit(*p)
	}
	return cur, dropped
}

// drainRange is DrainFrom with an explicit upper bound: it delivers retained
// samples with sequence in [from, to), where to is a writer position the
// caller already observed (the engine's evaluation cursor). The black box
// flushes with the engine cursor as the bound so a capture holds exactly the
// samples each evaluation folded — samples recorded after the engine's drain
// but before the flush belong to the NEXT evaluation's batch, and including
// them would make replay fold them one evaluation early.
func (s *Series) drainRange(from, to uint64, emit func(Sample)) (next uint64, dropped uint64) {
	cur := s.pos.Load()
	if to > cur {
		to = cur
	}
	capacity := uint64(len(s.slots))
	start := from
	if cur > capacity && cur-capacity > start {
		if lost := cur - capacity - start; start+lost > to {
			dropped = to - start
			return to, dropped
		} else {
			dropped = lost
		}
		start = cur - capacity
	}
	for i := start; i < to; i++ {
		p := s.slots[i%capacity].Load()
		if p == nil || p.seq != i {
			dropped++
			continue
		}
		emit(*p)
	}
	return to, dropped
}

// Record appends one sample to k's ring.
func (r *Recorder) Record(k Key, sm Sample) { r.Series(k).Record(sm) }

// Each calls fn for every series ever created, in unspecified order.
func (r *Recorder) Each(fn func(*Series)) {
	r.series.Range(func(_, v interface{}) bool {
		fn(v.(*Series))
		return true
	})
}

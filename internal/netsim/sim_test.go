package netsim

import (
	"math"
	"testing"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
)

func TestQueueIndexMapping(t *testing.T) {
	// Every class maps to its own queue, ordered by priority.
	for _, c := range contract.Classes() {
		if got := queueIndex(bpf.DSCPForClass(c)); got != int(c) {
			t.Errorf("class %v queue = %d, want %d", c, got, int(c))
		}
	}
	if got := queueIndex(bpf.NonConformDSCP); got != nonConformQueue {
		t.Errorf("non-conform queue = %d, want %d", got, nonConformQueue)
	}
	if got := queueIndex(255); got != nonConformQueue {
		t.Errorf("unknown DSCP queue = %d, want scavenger", got)
	}
}

func TestACLMatching(t *testing.T) {
	l := &Link{}
	l.AddACL(ACL{NPG: "Cold", NonConformOnly: true, DropFraction: 0.5})
	if got := l.aclDropFraction("Cold", true); got != 0.5 {
		t.Errorf("matching drop = %v", got)
	}
	if got := l.aclDropFraction("Cold", false); got != 0 {
		t.Errorf("conforming traffic dropped: %v", got)
	}
	if got := l.aclDropFraction("Other", true); got != 0 {
		t.Errorf("other NPG dropped: %v", got)
	}
	// Rules compose multiplicatively.
	l.AddACL(ACL{NPG: "Cold", NonConformOnly: true, DropFraction: 0.5})
	if got := l.aclDropFraction("Cold", true); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("stacked drop = %v, want 0.75", got)
	}
	l.ClearACLs()
	if got := l.aclDropFraction("Cold", true); got != 0 {
		t.Errorf("drop after clear = %v", got)
	}
}

// simpleSim builds one link with one service host and flow.
func simpleSim(t *testing.T, capacity, demand float64) (*Sim, *Host, *Flow, *Link) {
	t.Helper()
	sim := New(Options{Tick: time.Second, Seed: 1})
	link := sim.AddLink("L", capacity, 20*time.Millisecond)
	h := sim.AddHost("h1", "A", "Svc", contract.ClassB)
	f := sim.AddFlow(h, "B", []*Link{link}, demand)
	return sim, h, f, link
}

func TestFlowEstablishesAndRampsUp(t *testing.T) {
	sim, _, f, _ := simpleSim(t, 100e9, 10e9)
	if f.Established() {
		t.Fatal("flow established before any tick")
	}
	sim.Run(30)
	if !f.Established() {
		t.Fatal("flow failed to establish on a clean network")
	}
	if f.SynSentCount < 1 || f.SynFailed != 0 {
		t.Errorf("SYN stats = %d sent, %d failed", f.SynSentCount, f.SynFailed)
	}
	// Rate converges to demand.
	if math.Abs(f.rate-10e9)/10e9 > 0.01 {
		t.Errorf("rate = %v, want ~10e9", f.rate)
	}
	if f.DeliveredBits < 0.99*f.SentBits {
		t.Errorf("delivered %v of %v bits on a clean network", f.DeliveredBits, f.SentBits)
	}
}

func TestCongestionCausesLossAndBackoff(t *testing.T) {
	// Demand 2x capacity: sustained loss, rate backs off below demand.
	sim, _, f, _ := simpleSim(t, 10e9, 20e9)
	sim.Run(60)
	if f.lastLossFrac <= 0 {
		t.Error("no loss under 2x overload")
	}
	if f.rate >= 20e9*0.95 {
		t.Errorf("rate %v did not back off from demand", f.rate)
	}
	if f.Retransmits == 0 {
		t.Error("no retransmits recorded")
	}
}

func TestStrictPriorityProtectsPremium(t *testing.T) {
	sim := New(Options{Tick: time.Second, Seed: 2})
	link := sim.AddLink("L", 10e9, 10*time.Millisecond)
	hi := sim.AddHost("hi", "A", "Premium", contract.C1Low)
	lo := sim.AddHost("lo", "A", "Basic", contract.C4High)
	fHi := sim.AddFlow(hi, "B", []*Link{link}, 8e9)
	fLo := sim.AddFlow(lo, "B", []*Link{link}, 8e9)
	sim.Run(80)
	// Premium traffic fits (8 < 10); the basic class eats all the loss.
	if fHi.lastLossFrac > 0.01 {
		t.Errorf("premium loss = %v", fHi.lastLossFrac)
	}
	if fLo.lastLossFrac <= 0.1 {
		t.Errorf("basic loss = %v, want substantial", fLo.lastLossFrac)
	}
	if fLo.rate >= fHi.rate {
		t.Errorf("basic rate %v not below premium %v", fLo.rate, fHi.rate)
	}
}

func TestNonConformingSharesScavengerQueue(t *testing.T) {
	// A remarked premium flow must compete in the scavenger queue, not its
	// class queue.
	sim := New(Options{Tick: time.Second, Seed: 3})
	link := sim.AddLink("L", 10e9, 10*time.Millisecond)
	h := sim.AddHost("h", "A", "Svc", contract.C1Low)
	f := sim.AddFlow(h, "B", []*Link{link}, 8e9)
	filler := sim.AddHost("f", "A", "Filler", contract.C4High)
	fFill := sim.AddFlow(filler, "B", []*Link{link}, 8e9)
	// Mark all of Svc's traffic non-conforming.
	h.Prog.Actions.Update(bpf.MapKey{NPG: "Svc", Class: contract.C1Low, Region: "A"},
		bpf.Action{Mode: bpf.MarkHosts, NonConformGroups: bpf.NumGroups})
	sim.Run(80)
	if f.lastConforming {
		t.Fatal("flow still conforming despite full marking")
	}
	// The class-c4 filler now outranks the remarked c1 flow.
	if fFill.lastLossFrac > 0.01 {
		t.Errorf("filler loss = %v, want ~0", fFill.lastLossFrac)
	}
	if f.lastLossFrac <= 0.1 {
		t.Errorf("remarked flow loss = %v, want substantial", f.lastLossFrac)
	}
}

func TestACLDropsBreakConnections(t *testing.T) {
	sim, h, f, link := simpleSim(t, 100e9, 10e9)
	sim.Run(20) // establish
	if !f.Established() {
		t.Fatal("not established")
	}
	// Mark everything non-conforming and drop 100% of it.
	h.Prog.Actions.Update(bpf.MapKey{NPG: "Svc", Class: contract.ClassB, Region: "A"},
		bpf.Action{Mode: bpf.MarkHosts, NonConformGroups: bpf.NumGroups})
	link.AddACL(ACL{NPG: "Svc", NonConformOnly: true, DropFraction: 1})
	sim.Run(40)
	// The connection collapses back into SYN retries that keep failing.
	if f.Established() {
		t.Error("connection survived 100% drop")
	}
	if f.SynFailed == 0 {
		t.Error("no SYN failures recorded")
	}
}

func TestHostEgressRates(t *testing.T) {
	sim, h, _, _ := simpleSim(t, 100e9, 10e9)
	sim.Run(30)
	total, conform := h.EgressRates(sim.Tick())
	if math.Abs(total-10e9)/10e9 > 0.05 {
		t.Errorf("total = %v, want ~10e9", total)
	}
	if total != conform {
		t.Errorf("unmarked host: conform %v != total %v", conform, total)
	}
}

func TestMetricsSeriesAlignment(t *testing.T) {
	sim := New(Options{Tick: time.Second, Seed: 4})
	link := sim.AddLink("L", 100e9, time.Millisecond)
	hA := sim.AddHost("a", "A", "SvcA", contract.ClassA)
	sim.AddFlow(hA, "B", []*Link{link}, 1e9)
	sim.Run(5)
	// Second service appears later; its series must be backfilled.
	hB := sim.AddHost("b", "A", "SvcB", contract.ClassB)
	sim.AddFlow(hB, "B", []*Link{link}, 1e9)
	sim.Run(5)
	for key, series := range sim.Metrics.Groups {
		if len(series) != sim.Metrics.Ticks() {
			t.Errorf("group %v series %d entries, want %d", key, len(series), sim.Metrics.Ticks())
		}
	}
	for npg, series := range sim.Metrics.PerNPG {
		if len(series) != sim.Metrics.Ticks() {
			t.Errorf("NPG %v series %d entries, want %d", npg, len(series), sim.Metrics.Ticks())
		}
	}
	// Backfilled prefix is zero.
	svcB := sim.Metrics.NPGSeries("SvcB")
	if svcB[0].TotalRate != 0 {
		t.Error("backfill not zero")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() float64 {
		sim, _, f, _ := simpleSim(t, 10e9, 20e9)
		sim.Run(50)
		return f.DeliveredBits
	}
	if run() != run() {
		t.Error("same seed produced different results")
	}
}

func TestSimString(t *testing.T) {
	sim, _, _, _ := simpleSim(t, 1e9, 1e9)
	if sim.String() == "" {
		t.Error("empty String()")
	}
	if sim.Now().IsZero() {
		t.Error("zero Now()")
	}
}

func TestServeWeightedAllFit(t *testing.T) {
	offered := []float64{10, 20, 30}
	served := serveWeighted(offered, []float64{3, 2, 1}, 100)
	for q := range offered {
		if served[q] != offered[q] {
			t.Errorf("queue %d served %v, want %v", q, served[q], offered[q])
		}
	}
}

func TestServeWeightedProportionalUnderContention(t *testing.T) {
	// Two queues both want 100 with weights 3:1 over capacity 80.
	served := serveWeighted([]float64{100, 100}, []float64{3, 1}, 80)
	if math.Abs(served[0]-60) > 1e-9 || math.Abs(served[1]-20) > 1e-9 {
		t.Errorf("served = %v, want [60 20]", served)
	}
}

func TestServeWeightedRedistributesIdleShare(t *testing.T) {
	// Queue 0 needs little; its unused weighted share flows to queue 1.
	served := serveWeighted([]float64{10, 200}, []float64{3, 1}, 100)
	if served[0] != 10 {
		t.Errorf("small queue served %v", served[0])
	}
	if math.Abs(served[1]-90) > 1e-9 {
		t.Errorf("big queue served %v, want 90", served[1])
	}
}

func TestServeWeightedConservation(t *testing.T) {
	offered := []float64{50, 0, 70, 30, 0, 10, 90, 5}
	served := serveWeighted(offered, classWeights[:], 120)
	total := 0.0
	for q := range served {
		if served[q] < -1e-9 || served[q] > offered[q]+1e-9 {
			t.Fatalf("queue %d served %v of %v", q, served[q], offered[q])
		}
		total += served[q]
	}
	if total > 120+1e-6 {
		t.Errorf("served %v exceeds capacity", total)
	}
	// Work conserving: demand exceeds capacity, so capacity is exhausted.
	if total < 120-1e-6 {
		t.Errorf("served %v below capacity despite excess demand", total)
	}
}

func TestMultiHopPathBottleneck(t *testing.T) {
	// A flow across two links is limited by the slower one.
	sim := New(Options{Tick: time.Second, Seed: 6})
	wide := sim.AddLink("wide", 100e9, 5*time.Millisecond)
	narrow := sim.AddLink("narrow", 5e9, 5*time.Millisecond)
	h := sim.AddHost("h", "A", "Svc", contract.ClassB)
	f := sim.AddFlow(h, "C", []*Link{wide, narrow}, 20e9)
	sim.Run(60)
	// Delivered rate bounded by the narrow link.
	rate := f.lastDelivered / sim.Tick().Seconds()
	if rate > 5e9*1.05 {
		t.Errorf("delivered %v exceeds narrow link capacity", rate)
	}
	if f.lastLossFrac <= 0 {
		t.Error("no loss on bottlenecked multi-hop flow")
	}
	// RTT accumulates both links' base RTTs.
	if time.Duration(f.lastRTT*float64(time.Second)) < 10*time.Millisecond {
		t.Errorf("RTT %v below sum of base RTTs", time.Duration(f.lastRTT*float64(time.Second)))
	}
}

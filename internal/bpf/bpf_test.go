package bpf

import (
	"sync"
	"testing"
	"testing/quick"

	"entitlement/internal/contract"
)

func testKey() MapKey {
	return MapKey{NPG: "Ads", Class: contract.ClassA, Region: "A"}
}

func testPacket(host string, flowHash uint32) Packet {
	return Packet{
		NPG: "Ads", Class: contract.ClassA, Region: "A",
		Host: host, FlowHash: flowHash,
		DSCP: DSCPForClass(contract.ClassA), Bytes: 1500,
	}
}

func TestDSCPForClassDistinctAndOrdered(t *testing.T) {
	seen := make(map[uint8]bool)
	prev := uint8(255)
	for _, c := range contract.Classes() {
		d := DSCPForClass(c)
		if d == NonConformDSCP {
			t.Errorf("class %v DSCP collides with NonConformDSCP", c)
		}
		if seen[d] {
			t.Errorf("duplicate DSCP %d", d)
		}
		seen[d] = true
		if d >= prev {
			t.Errorf("DSCP not descending with priority: %d after %d", d, prev)
		}
		prev = d
	}
	if DSCPForClass(contract.Class(99)) != 0 {
		t.Error("invalid class should map to 0")
	}
}

func TestMapUpdateLookupDelete(t *testing.T) {
	m := NewMap()
	key := testKey()
	if _, ok := m.Lookup(key); ok {
		t.Error("empty map has entry")
	}
	m.Update(key, Action{Mode: MarkHosts, NonConformGroups: 10})
	a, ok := m.Lookup(key)
	if !ok || a.Mode != MarkHosts || a.NonConformGroups != 10 {
		t.Errorf("Lookup = %+v, %v", a, ok)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
	m.Delete(key)
	if _, ok := m.Lookup(key); ok {
		t.Error("deleted entry found")
	}
}

func TestEgressNoAction(t *testing.T) {
	p := NewProgram(NewMap())
	pkt := testPacket("h1", 5)
	out := p.Egress(pkt)
	if out.DSCP != pkt.DSCP {
		t.Error("packet remarked without any action")
	}
	st := p.Stats()
	if st.Matched != 0 || st.Remarked != 0 || st.Bytes != 1500 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestEgressFlowBased(t *testing.T) {
	m := NewMap()
	// 2 of 100 flow groups non-conforming (the Figure 10 example).
	m.Update(testKey(), Action{Mode: MarkFlows, NonConformGroups: 2})
	p := NewProgram(m)
	// Flow hash 1 → group 1 < 2: remarked.
	out := p.Egress(testPacket("h1", 1))
	if !IsNonConforming(out) {
		t.Error("group 1 not remarked")
	}
	// Flow hash 150 → group 50: passes.
	out = p.Egress(testPacket("h1", 150))
	if IsNonConforming(out) {
		t.Error("group 50 remarked")
	}
	st := p.Stats()
	if st.Matched != 2 || st.Remarked != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestEgressHostBased(t *testing.T) {
	m := NewMap()
	m.Update(testKey(), Action{Mode: MarkHosts, NonConformGroups: 50})
	p := NewProgram(m)
	// With threshold 50, about half the hosts are remarked; crucially, a
	// given host's packets are remarked all-or-nothing regardless of flow.
	for _, host := range []string{"host-a", "host-b", "host-c", "host-d"} {
		first := IsNonConforming(p.Egress(testPacket(host, 1)))
		for flow := uint32(2); flow < 20; flow++ {
			got := IsNonConforming(p.Egress(testPacket(host, flow)))
			if got != first {
				t.Fatalf("host %s marking differs across flows", host)
			}
		}
	}
}

func TestEgressZeroGroupsIsNoop(t *testing.T) {
	m := NewMap()
	m.Update(testKey(), Action{Mode: MarkHosts, NonConformGroups: 0})
	p := NewProgram(m)
	out := p.Egress(testPacket("h", 3))
	if IsNonConforming(out) {
		t.Error("zero threshold remarked traffic")
	}
}

func TestEgressFullThresholdMarksEverything(t *testing.T) {
	m := NewMap()
	m.Update(testKey(), Action{Mode: MarkFlows, NonConformGroups: NumGroups})
	p := NewProgram(m)
	for flow := uint32(0); flow < 500; flow += 13 {
		if !IsNonConforming(p.Egress(testPacket("h", flow))) {
			t.Fatalf("flow %d not remarked at full threshold", flow)
		}
	}
}

func TestEgressOtherFlowSetsUntouched(t *testing.T) {
	m := NewMap()
	m.Update(testKey(), Action{Mode: MarkHosts, NonConformGroups: NumGroups})
	p := NewProgram(m)
	other := testPacket("h", 1)
	other.NPG = "Logging" // different flow set
	if IsNonConforming(p.Egress(other)) {
		t.Error("unrelated NPG remarked")
	}
	otherClass := testPacket("h", 1)
	otherClass.Class = contract.ClassB
	if IsNonConforming(p.Egress(otherClass)) {
		t.Error("unrelated class remarked")
	}
}

func TestHostGroupStableAndSpread(t *testing.T) {
	if HostGroup("host-1") != HostGroup("host-1") {
		t.Error("HostGroup unstable")
	}
	// Groups spread across the space.
	seen := make(map[uint32]bool)
	for i := 0; i < 500; i++ {
		g := HostGroup(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i%13)))
		if g >= NumGroups {
			t.Fatalf("group %d out of range", g)
		}
		seen[g] = true
	}
	if len(seen) < 50 {
		t.Errorf("host groups poorly spread: %d distinct", len(seen))
	}
}

func TestConcurrentEgressAndUpdates(t *testing.T) {
	m := NewMap()
	p := NewProgram(m)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				m.Update(testKey(), Action{Mode: MarkHosts, NonConformGroups: i % (NumGroups + 1)})
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 2000; i++ {
				p.Egress(testPacket("host", uint32(i)))
			}
		}()
	}
	workers.Wait()
	close(stop)
	wg.Wait()
	if p.Stats().Bytes == 0 {
		t.Error("no packets processed")
	}
}

// Property: a marking fraction f remarks roughly f of flow groups.
func TestFlowMarkingFractionProperty(t *testing.T) {
	f := func(threshRaw uint8) bool {
		thresh := uint32(threshRaw) % (NumGroups + 1)
		m := NewMap()
		m.Update(testKey(), Action{Mode: MarkFlows, NonConformGroups: thresh})
		p := NewProgram(m)
		marked := 0
		const flows = 1000
		for i := 0; i < flows; i++ {
			if IsNonConforming(p.Egress(testPacket("h", uint32(i)))) {
				marked++
			}
		}
		want := float64(thresh) / NumGroups
		got := float64(marked) / flows
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHostGroupSaltedRotates(t *testing.T) {
	// Salt 0 matches the unsalted group.
	if HostGroupSalted("h1", 0) != HostGroup("h1") {
		t.Error("zero salt differs from unsalted")
	}
	// Across salts, a host's group moves (for most hosts most salts).
	moved := 0
	const hosts = 50
	for i := 0; i < hosts; i++ {
		id := "host-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if HostGroupSalted(id, 1) != HostGroupSalted(id, 2) {
			moved++
		}
	}
	if moved < hosts*8/10 {
		t.Errorf("only %d/%d hosts changed group across salts", moved, hosts)
	}
	// Deterministic per (host, salt).
	if HostGroupSalted("x", 7) != HostGroupSalted("x", 7) {
		t.Error("salted group unstable")
	}
}

func TestEgressSaltRotatesMarkedSet(t *testing.T) {
	hosts := make([]string, 40)
	for i := range hosts {
		hosts[i] = "h" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	markedSet := func(salt uint32) map[string]bool {
		m := NewMap()
		m.Update(testKey(), Action{Mode: MarkHosts, NonConformGroups: 50, Salt: salt})
		p := NewProgram(m)
		out := make(map[string]bool)
		for _, h := range hosts {
			out[h] = IsNonConforming(p.Egress(testPacket(h, 1)))
		}
		return out
	}
	a := markedSet(1)
	b := markedSet(2)
	diff := 0
	for _, h := range hosts {
		if a[h] != b[h] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("marked set identical across salts")
	}
}

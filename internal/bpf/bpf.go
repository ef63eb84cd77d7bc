// Package bpf emulates the kernel half of the enforcement agent (Figure 9):
// a set of maps programmed from user space and an egress program that
// consults them to match packets and apply actions — here, remarking
// non-conforming traffic to a dedicated low-priority DSCP. The split matches
// the paper's design: the endhost "only marks traffic rather than shape it",
// leaving drop decisions to the switches.
//
// The emulation keeps BPF's operational shape: lookups are lock-cheap, the
// program is stateless per packet, and the only channel from the control
// plane is map updates.
package bpf

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"entitlement/internal/contract"
	"entitlement/internal/topology"
)

// NonConformDSCP is the DSCP value carried by remarked (non-conforming)
// packets. Switches map it to the lowest-priority queue regardless of the
// packet's original class (§5.1, footnote 1).
const NonConformDSCP uint8 = 1

// NumGroups is the marking granularity: flows (or hosts) hash into this many
// buckets, and a threshold selects how many buckets are non-conforming
// (Figure 10 uses identifiers 0..99).
const NumGroups = 100

// DSCPForClass returns the on-the-wire DSCP of a QoS class. The concrete
// values mirror conventional AF/EF assignments, descending with priority;
// only distinctness and their queue mapping matter to the system.
func DSCPForClass(c contract.Class) uint8 {
	dscps := [...]uint8{46, 44, 34, 32, 26, 24, 18, 16}
	if int(c) >= 0 && int(c) < len(dscps) {
		return dscps[c]
	}
	return 0
}

// Packet is the egress-packet metadata the classifier matches on. At the
// endhost, service attributes (NPG, class) are readily available — the
// paper's reason to mark on hosts rather than switches (§5.1).
type Packet struct {
	NPG      contract.NPG
	Class    contract.Class
	Region   topology.Region // source region
	Host     string          // source host ID
	FlowHash uint32          // stable per-flow hash (5-tuple surrogate)
	DSCP     uint8
	Bytes    int
}

// MarkMode selects the remarking granularity (§5.3).
type MarkMode uint8

// Marking modes.
const (
	// MarkNone disables remarking for the flow set.
	MarkNone MarkMode = iota
	// MarkFlows remarks a fraction of flow groups on every host.
	MarkFlows
	// MarkHosts remarks all matching traffic from a fraction of hosts —
	// the production default ("we use the host-based approach as our
	// default marking method").
	MarkHosts
)

// Action is the value stored in the action map: which marking mode to apply
// and how many of the NumGroups buckets are non-conforming.
type Action struct {
	Mode MarkMode
	// NonConformGroups in [0, NumGroups]: groups with ID below this
	// threshold are remarked (Figure 10: ratio 0.02 → groups 0 and 1).
	NonConformGroups uint32
	// Salt perturbs the group hash. Rotating the salt across enforcement
	// periods rotates WHICH hosts get marked, spreading the pain of
	// sustained over-entitlement across the fleet instead of pinning it on
	// the same hosts (host-based marking makes affected hosts visible to
	// service teams, §5.3; rotation keeps that visibility fair). All agents
	// derive the salt from the shared clock, so the fleet stays consistent.
	Salt uint32
}

// MapKey identifies a flow set, mirroring the entitlement tuple.
type MapKey struct {
	NPG    contract.NPG
	Class  contract.Class
	Region topology.Region
}

// Map is an emulated BPF hash map from flow set to Action.
type Map struct {
	mu      sync.RWMutex
	entries map[MapKey]Action
}

// NewMap creates an empty action map.
func NewMap() *Map {
	return &Map{entries: make(map[MapKey]Action)}
}

// Update inserts or replaces the action for key (BPF_MAP_UPDATE_ELEM).
func (m *Map) Update(key MapKey, a Action) {
	m.mu.Lock()
	m.entries[key] = a
	m.mu.Unlock()
}

// Lookup returns the action for key.
func (m *Map) Lookup(key MapKey) (Action, bool) {
	m.mu.RLock()
	a, ok := m.entries[key]
	m.mu.RUnlock()
	return a, ok
}

// Delete removes the action for key.
func (m *Map) Delete(key MapKey) {
	m.mu.Lock()
	delete(m.entries, key)
	m.mu.Unlock()
}

// Len returns the number of programmed entries.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// Stats are the program's packet counters (per-CPU counters in real BPF).
type Stats struct {
	Matched  uint64 // packets whose flow set had a programmed action
	Remarked uint64 // packets remarked to NonConformDSCP
	Bytes    uint64 // total bytes seen
}

// Program is the egress classifier attached to one host.
type Program struct {
	Actions *Map

	matched  atomic.Uint64
	remarked atomic.Uint64
	bytes    atomic.Uint64
}

// NewProgram creates a program consulting the given action map. Hosts on
// one machine share the map exactly as BPF programs share pinned maps.
func NewProgram(actions *Map) *Program {
	return &Program{Actions: actions}
}

// FlowGroup maps a flow hash to its group ID.
func FlowGroup(flowHash uint32) uint32 { return flowHash % NumGroups }

// HostGroup maps a host ID to its group ID via FNV-1a, so group membership
// is stable across agents without coordination.
func HostGroup(host string) uint32 { return HostGroupSalted(host, 0) }

// HostGroupSalted maps a host ID to its group under a rotation salt.
func HostGroupSalted(host string, salt uint32) uint32 {
	h := fnv.New32a()
	h.Write([]byte(host))
	if salt != 0 {
		var b [4]byte
		b[0] = byte(salt)
		b[1] = byte(salt >> 8)
		b[2] = byte(salt >> 16)
		b[3] = byte(salt >> 24)
		h.Write(b[:])
	}
	return h.Sum32() % NumGroups
}

// Egress classifies one outgoing packet, returning it with the DSCP
// possibly remarked. This is the per-packet hot path: one map lookup, one
// modulo, no allocation.
func (p *Program) Egress(pkt Packet) Packet {
	p.bytes.Add(uint64(pkt.Bytes))
	action, ok := p.Actions.Lookup(MapKey{NPG: pkt.NPG, Class: pkt.Class, Region: pkt.Region})
	if !ok || action.Mode == MarkNone || action.NonConformGroups == 0 {
		return pkt
	}
	p.matched.Add(1)
	var group uint32
	switch action.Mode {
	case MarkFlows:
		group = FlowGroup(pkt.FlowHash ^ action.Salt)
	case MarkHosts:
		group = HostGroupSalted(pkt.Host, action.Salt)
	default:
		return pkt
	}
	if group < action.NonConformGroups {
		pkt.DSCP = NonConformDSCP
		p.remarked.Add(1)
	}
	return pkt
}

// IsNonConforming reports whether a packet has been remarked.
func IsNonConforming(pkt Packet) bool { return pkt.DSCP == NonConformDSCP }

// Stats returns a snapshot of the counters.
func (p *Program) Stats() Stats {
	return Stats{
		Matched:  p.matched.Load(),
		Remarked: p.remarked.Load(),
		Bytes:    p.bytes.Load(),
	}
}

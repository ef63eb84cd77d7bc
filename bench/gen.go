package main

import (
	"fmt"
	"math"
	"math/rand"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/topology"
)

// baseUnix anchors every generated StartUnix, so a seed fixes the request
// stream byte for byte. The fleet's virtual clock starts a day later, inside
// every granted contract's period.
const baseUnix = 1_700_000_000

// identity is who asks, for a whole workload: the NPG and QoS class the seed
// picks, and the home region every request includes. Home is the first
// region whatever the seed: a risk pass costs up to 40 % more from one
// region than from another, and a seed-picked home would turn that into
// run-to-run spread between seeds. The peer regions, drawn per request,
// average out.
type identity struct {
	npg    contract.NPG
	class  contract.Class
	home   topology.Region
	others []topology.Region // every region but home, sorted
}

func newIdentity(seed int64, regions []topology.Region) identity {
	rng := rand.New(rand.NewSource(seed))
	return identity{
		npg:    contract.NPG(fmt.Sprintf("svc-%06x", rng.Intn(1<<24))),
		class:  contract.Classes()[rng.Intn(len(contract.Classes()))],
		home:   regions[0],
		others: regions[1:],
	}
}

// grantGen is one driver's stream of contract requests. Every request asks
// for four hoses — the workload's home region and one drawn peer region,
// egress and ingress — so any two requests share the home hoses' flow-set
// keys. grantd never co-batches colliding flow sets, which makes every
// decision independent of how the drivers interleave and lets the benchmark
// check each one against DecideBatch called directly.
type grantGen struct {
	id      identity
	rng     *rand.Rand
	mix     float64 // where this stream starts in the status mix, [0, 1)
	stream  int64
	streams int64
	seq     int64
}

func newGrantGen(seed int64, id identity, stream, streams int) *grantGen {
	g := &grantGen{
		id:      id,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(stream) + 1)),
		stream:  int64(stream),
		streams: int64(streams),
	}
	g.mix = g.rng.Float64()
	return g
}

// next draws a never-seen request and the status it must be decided with:
// 70 % ask for tens of Gbps and are approved, 30 % ask for tens of Tbps —
// beyond any region's capacity — and are negotiated down (two in three) or
// rejected, depending on whether they opted into the counter-proposal. Which
// of the three a request is follows a golden-ratio sequence from a seeded
// start, so any stretch of the stream holds the mix to within a request or
// two: a decision's size and cost depend on its status, and a mix left to
// chance would show as spread between seeds. The continuous rate draw and
// the per-request StartUnix make every signature unique; StartUnix doubles
// as the tag that joins a sink span to its request.
func (g *grantGen) next() (granting.Request, granting.Status) {
	_, kind := math.Modf(g.mix + float64(g.seq)*0.6180339887498949)
	base, want := (20+180*g.rng.Float64())*1e9, granting.StatusApproved
	if kind >= 0.7 {
		base, want = (20+20*g.rng.Float64())*1e12, granting.StatusNegotiated
		if kind >= 0.9 {
			want = granting.StatusRejected
		}
	}
	peer := g.id.others[g.rng.Intn(len(g.id.others))]
	req := granting.Request{
		NPG:       g.id.npg,
		StartUnix: baseUnix + g.seq*g.streams + g.stream,
		Negotiate: want != granting.StatusRejected,
	}
	g.seq++
	for _, region := range []topology.Region{g.id.home, peer} {
		for _, dir := range []contract.Direction{contract.Egress, contract.Ingress} {
			req.Hoses = append(req.Hoses, hose.Request{
				Class: g.id.class, Region: region, Direction: dir,
				Rate: base * (0.8 + 0.4*g.rng.Float64()),
			})
		}
	}
	return req, want
}

// fleetRequest asks for the fleet's flow set: one egress hose at the home
// region. tag must be unique per request within a workload.
func fleetRequest(id identity, rate float64, tag int64) granting.Request {
	return granting.Request{
		NPG:       id.npg,
		StartUnix: baseUnix + tag,
		Hoses: []hose.Request{{
			Class: id.class, Region: id.home, Direction: contract.Egress, Rate: rate,
		}},
	}
}

// hostIDs draws n host names from the seed. Names are accepted so that the
// fleet spreads evenly over the datapath's marking groups (slot i must hash
// to group offset + perm(i)·NumGroups/n), the way a large fleet does by the
// law of large numbers; a fixed stride permutation decorrelates a host's
// group from its place in the sweep order. This keeps the re-grant probe's
// dynamics — which hosts flip at which threshold — the same for every seed,
// so convergence time measures the program and not the luck of the hash.
func hostIDs(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	stride := n*5/8 | 1
	for gcd(stride, n) != 1 {
		stride += 2
	}
	offset := rng.Intn(bpf.NumGroups)
	ids := make([]string, n)
	for i := range ids {
		want := uint32((offset + (i*stride%n)*bpf.NumGroups/n) % bpf.NumGroups)
		for {
			ids[i] = fmt.Sprintf("h%08x", rng.Uint32())
			if bpf.HostGroup(ids[i]) == want {
				break
			}
		}
	}
	return ids
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

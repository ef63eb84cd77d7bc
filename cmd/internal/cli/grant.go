package cli

import (
	"flag"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/granting"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// Grant is the backbone and admission configuration grantd and granting
// derive from their flags. Both derive it here, so a batch granting decides
// in-process and the same batch submitted to a grantd with the same flags
// are decided on the same topology with the same options.
type Grant struct {
	Figure6   bool // the Figure 6 five-region mesh instead of a synthetic backbone (grantd's -figure6)
	Regions   int
	Seed      int64
	Scenarios int
	Workers   int
	TMs       int // representative TMs per hose (grantd's -tms)
	SLO       float64
}

// GrantFlags registers the flags grantd and granting share on fs and
// returns the Grant they fill in; unparsed, it holds the defaults.
func GrantFlags(fs *flag.FlagSet) *Grant {
	g := &Grant{TMs: 4}
	fs.IntVar(&g.Regions, "regions", 6, "synthetic backbone regions")
	fs.Int64Var(&g.Seed, "seed", 1, "random seed (topology, TM sampling, risk scenarios)")
	fs.IntVar(&g.Scenarios, "scenarios", 100, "risk-simulation failure scenarios")
	fs.IntVar(&g.Workers, "workers", 0, "risk-simulation worker goroutines (0 = all cores, 1 = serial)")
	fs.Float64Var(&g.SLO, "slo", 0.999, "default availability SLO")
	return g
}

// Backbone builds the topology: Figure 6, or a synthetic backbone of 4 to
// 12 Tbps links.
func (g Grant) Backbone() (*topology.Topology, error) {
	if g.Figure6 {
		return topology.FigureSix(), nil
	}
	o := topology.DefaultBackboneOptions()
	o.Regions, o.Seed = g.Regions, g.Seed
	o.MinCapGbps, o.MaxCapGbps = 4000, 12000
	return topology.Backbone(o)
}

// Options derives the admission options; everything else keeps
// granting.Options' defaults.
func (g Grant) Options() granting.Options {
	return granting.Options{Approval: approval.Options{
		RepresentativeTMs: g.TMs,
		DefaultSLO:        contract.SLO(g.SLO),
		Risk:              risk.Options{Scenarios: g.Scenarios, Seed: g.Seed + 2, Workers: g.Workers},
		Seed:              g.Seed + 3,
	}}
}

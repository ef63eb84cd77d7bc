// Package granting turns the §4.3 approval pipeline into a long-running
// admission control plane: contract requests arrive continuously (the paper's
// "service teams submit entitlement requests"), are decided against the
// shared risk model with Algorithm 2 plus the §8 negotiation fallback, and
// approved contracts land straight in the contract database that the
// enforcement agents poll — the online grant→store→enforce path.
//
// The package has three layers:
//
//   - DecideBatch: the pure decision function. It canonicalizes the batch
//     (sorted requests, sorted hoses) so the same request SET decides
//     byte-identically regardless of arrival interleaving or worker count.
//   - Service: the admission queue. Concurrent submissions coalesce into one
//     risk pass; a two-level cache (Monte-Carlo scenario sets + pooled flow
//     runners, and a whole-batch decision memo) keyed by the topology epoch
//     makes warm decisions cheap.
//   - Server/Client: the wire-RPC surface (Submit/Decide/Status/Report).
package granting

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/forecast"
	"entitlement/internal/hose"
	"entitlement/internal/obs/trace"
	"entitlement/internal/topology"
)

// Request is one contract ask: an NPG's hoses for the coming enforcement
// period. It is the unit of admission — all of a request's hoses are decided
// together and either become one stored contract or one counter-proposal.
type Request struct {
	NPG contract.NPG `json:"npg"`
	// SLO is the availability target; 0 uses the service default.
	SLO contract.SLO `json:"slo,omitempty"`
	// Hoses are the requested flow sets. Each hose's NPG must be empty
	// (filled from the request) or equal to it.
	Hoses []hose.Request `json:"hoses"`
	// StartUnix begins the enforcement period (seconds); 0 means "now",
	// which the service pins at submission time so retries are idempotent.
	StartUnix int64 `json:"start_unix,omitempty"`
	// Negotiate accepts the §8 counter-proposal automatically: an
	// under-approved request is granted at its admittable volume instead of
	// rejected.
	Negotiate bool `json:"negotiate,omitempty"`
}

// Validate checks the request against the topology (nil topo skips the
// region check, for client-side validation before dialing).
func (r *Request) Validate(topo *topology.Topology) error {
	if r.NPG == "" {
		return fmt.Errorf("granting: request missing NPG")
	}
	if len(r.Hoses) == 0 {
		return fmt.Errorf("granting: request for %s has no hoses", r.NPG)
	}
	if r.SLO != 0 {
		if err := r.SLO.Validate(); err != nil {
			return err
		}
	}
	seen := make(map[string]bool, len(r.Hoses))
	for i := range r.Hoses {
		h := &r.Hoses[i]
		if h.NPG == "" {
			h.NPG = r.NPG
		}
		if h.NPG != r.NPG {
			return fmt.Errorf("granting: hose %s inside request for %s", h.Key(), r.NPG)
		}
		if !h.Class.Valid() {
			return fmt.Errorf("granting: hose %d has invalid class %d", i, int(h.Class))
		}
		if h.Rate < 0 {
			return fmt.Errorf("granting: hose %s has negative rate", h.Key())
		}
		if seen[h.Key()] {
			return fmt.Errorf("granting: duplicate hose %s in request", h.Key())
		}
		seen[h.Key()] = true
		if topo != nil && !topo.HasRegion(h.Region) {
			return fmt.Errorf("granting: hose %s references unknown region %s", h.Key(), h.Region)
		}
	}
	return nil
}

// fhex renders a float exactly (hex mantissa), for cache signatures.
func fhex(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// Signature is the request's decision-relevant identity: every field that
// can change the outcome, rendered canonically. Used both to order a batch
// canonically and as the decision-memo key material.
func (r *Request) Signature() string {
	var b strings.Builder
	b.WriteString(string(r.NPG))
	b.WriteByte('|')
	b.WriteString(fhex(float64(r.SLO)))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(r.StartUnix, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(r.Negotiate))
	for i := range r.Hoses {
		h := &r.Hoses[i]
		b.WriteByte('|')
		b.WriteString(h.Key())
		b.WriteByte('=')
		b.WriteString(fhex(h.Rate))
		for _, s := range h.Segments {
			b.WriteByte('~')
			b.WriteString(fhex(s.Alpha))
			b.WriteByte(':')
			for j, t := range s.Targets {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(string(t))
			}
		}
	}
	return b.String()
}

// Status is the admission outcome class.
type Status string

// Admission outcomes.
const (
	// StatusApproved: every hose fully approved; contract stored at the
	// requested rates.
	StatusApproved Status = "approved"
	// StatusNegotiated: under-approved but the requester opted into the §8
	// fallback; contract stored at the admittable rates.
	StatusNegotiated Status = "negotiated"
	// StatusRejected: under-approved; counter-proposal returned, nothing
	// stored.
	StatusRejected Status = "rejected"
	// StatusError: the decision could not be computed or stored.
	StatusError Status = "error"
	// StatusQueueTimeout: the submission aged past Options.MaxQueueDelay
	// before a risk pass reached it. Deciding it late would grant against
	// a world the submitter has given up on, so it fails instead.
	StatusQueueTimeout Status = "queue_timeout"
)

// HoseDecision is the per-hose outcome inside a Decision, in the request's
// hose order.
type HoseDecision struct {
	Key           string  `json:"key"`
	Requested     float64 `json:"requested"`
	Approved      float64 `json:"approved"`
	FullyApproved bool    `json:"fully_approved"`
}

// Decision is the service's answer to one Request.
type Decision struct {
	// ID is the service-assigned request id (empty from DecideBatch).
	ID     string         `json:"id,omitempty"`
	NPG    contract.NPG   `json:"npg"`
	Status Status         `json:"status"`
	Hoses  []HoseDecision `json:"hoses"`
	// Proposals carries the §8 counter-proposals for under-approved hoses.
	Proposals []approval.CounterProposal `json:"proposals,omitempty"`
	// Contract is the stored contract (nil when rejected, errored, or the
	// request was balancing filler). Treat as immutable: memoized decisions
	// share it.
	Contract *contract.Contract `json:"contract,omitempty"`
	// Err reports a storage or decision failure.
	Err string `json:"err,omitempty"`
}

// Granted sums the granted (contracted) rate across the decision's hoses.
func (d *Decision) Granted() float64 {
	if d.Status != StatusApproved && d.Status != StatusNegotiated {
		return 0
	}
	total := 0.0
	for _, h := range d.Hoses {
		if d.Status == StatusApproved {
			total += h.Requested
		} else {
			total += h.Approved
		}
	}
	return total
}

// Options configures the decision path and the service around it.
type Options struct {
	// Approval configures Algorithm 2 (representative TMs, risk simulation,
	// seeds, default SLO). Risk.Workers does not affect decisions.
	Approval approval.Options
	// MaxBatch bounds how many queued single submissions coalesce into one
	// risk pass. Default 16.
	MaxBatch int
	// MemoMaxEntries bounds the decision memo (whole-batch LRU entries kept
	// warm between topology deltas). Default 1024; evictions are counted by
	// entitlement_grantd_memo_evictions_total.
	MemoMaxEntries int
	// MaxQueue bounds the admission queue in requests; a submission that
	// would push past it is shed with ErrOverloaded (wrapped retryable for
	// the wire layer, with ShedRetryAfter as the hint) and counted by
	// entitlement_grantd_shed_total. 0 leaves the queue unbounded.
	MaxQueue int
	// MaxQueueDelay bounds how long a submission may wait for its risk
	// pass; older submissions fail with StatusQueueTimeout instead of
	// being decided late. 0 disables the bound.
	MaxQueueDelay time.Duration
	// ShedRetryAfter is the retry-after hint attached to overload sheds.
	// Default 500ms.
	ShedRetryAfter time.Duration
	// WAL configures the write-ahead decision journal; an empty Dir keeps
	// the service purely in-memory (decisions do not survive a restart).
	WAL WALOptions
	// Now supplies the service clock (tests pin it). Default time.Now.
	Now func() time.Time
	// Tracer is the span collector submission lifecycles record into
	// (submit → queue → decide → journal → push). Nil uses the process-wide
	// trace.Default(), where the wire layer also records.
	Tracer *trace.Collector
}

// retain is how many decided requests the service keeps queryable.
const retain = 1024

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MemoMaxEntries <= 0 {
		o.MemoMaxEntries = 1024
	}
	if o.ShedRetryAfter <= 0 {
		o.ShedRetryAfter = 500 * time.Millisecond
	}
	o.WAL = o.WAL.withDefaults()
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// slo resolves the effective SLO for a request (request override, then the
// approval map, then the default), mirroring approval's resolution.
func (o *Options) slo(r *Request) contract.SLO {
	if r.SLO != 0 {
		return r.SLO
	}
	if s, ok := o.Approval.SLOs[r.NPG]; ok {
		return s
	}
	if o.Approval.DefaultSLO != 0 {
		return o.Approval.DefaultSLO
	}
	return 0.99 // approval's own default
}

// DecideBatch decides a set of requests in ONE approval pass — the hoses of
// every request compete for the same capacity, exactly like the batch CLI's
// single Approve call. The batch is canonicalized first (requests sorted by
// Signature, then the flat hose list by key and rate), so the same request
// set produces byte-identical decisions regardless of submission order or
// Risk.Workers. Decisions return in input order.
//
// Requests whose hoses collide (same flow-set key in two requests) cannot
// share a pass — the risk engine requires unique demand keys — and make the
// whole batch error; the Service's queue assembler never co-batches them.
func DecideBatch(topo *topology.Topology, reqs []Request, opts Options) ([]Decision, error) {
	o := opts.withDefaults()
	if len(reqs) == 0 {
		return nil, nil
	}
	for i := range reqs {
		if err := reqs[i].Validate(topo); err != nil {
			return nil, err
		}
	}

	// Canonical request order (output stays in input order).
	ord := make([]int, len(reqs))
	sigs := make([]string, len(reqs))
	for i := range reqs {
		ord[i] = i
		sigs[i] = reqs[i].Signature()
	}
	sort.SliceStable(ord, func(a, b int) bool { return sigs[ord[a]] < sigs[ord[b]] })

	// Per-NPG SLO map for approval; conflicting overrides cannot share a
	// pass (the SLO is an NPG-level property).
	slos := make(map[contract.NPG]contract.SLO, len(reqs))
	for k, v := range o.Approval.SLOs {
		slos[k] = v
	}
	for _, i := range ord {
		r := &reqs[i]
		if r.SLO == 0 {
			continue
		}
		if prev, ok := slos[r.NPG]; ok && prev != r.SLO {
			return nil, fmt.Errorf("granting: conflicting SLOs for %s in one batch (%v vs %v)", r.NPG, float64(prev), float64(r.SLO))
		}
		slos[r.NPG] = r.SLO
	}

	// Flatten, remembering each hose's owning (request, position), then
	// sort canonically: sampler seeds are positional, so hose order is part
	// of the assessment's identity.
	type ownerRef struct{ req, hose int }
	var flat []hose.Request
	var owners []ownerRef
	dup := make(map[string]bool)
	for _, ri := range ord {
		for hi := range reqs[ri].Hoses {
			h := reqs[ri].Hoses[hi]
			if dup[h.Key()] {
				return nil, fmt.Errorf("granting: hose %s appears in two requests of one batch", h.Key())
			}
			dup[h.Key()] = true
			flat = append(flat, h)
			owners = append(owners, ownerRef{ri, hi})
		}
	}
	perm := make([]int, len(flat))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ka, kb := flat[perm[a]].Key(), flat[perm[b]].Key()
		if ka != kb {
			return ka < kb
		}
		return flat[perm[a]].Rate < flat[perm[b]].Rate
	})
	sorted := make([]hose.Request, len(flat))
	for p, idx := range perm {
		sorted[p] = flat[idx]
	}

	apprOpts := o.Approval
	apprOpts.SLOs = slos
	res, err := approval.Approve(topo, sorted, apprOpts)
	if err != nil {
		return nil, err
	}
	// Counter-proposals: the RAILS-style search when enabled (each move
	// priced by a warm re-approval), the plain admittable-volume form
	// otherwise.
	proposals, err := approval.NegotiateSearch(topo, sorted, res, apprOpts)
	if err != nil {
		return nil, err
	}

	// Split the flat outcome back per request. Negotiate emits proposals in
	// approval order for each not-fully-approved hose, so a running index
	// attributes them.
	decs := make([]Decision, len(reqs))
	for i := range reqs {
		decs[i] = Decision{
			NPG:   reqs[i].NPG,
			Hoses: make([]HoseDecision, len(reqs[i].Hoses)),
		}
	}
	propIdx := 0
	for p := range res.Approvals {
		a := &res.Approvals[p]
		owner := owners[perm[p]]
		decs[owner.req].Hoses[owner.hose] = HoseDecision{
			Key:           a.Request.Key(),
			Requested:     a.Request.Rate,
			Approved:      a.ApprovedRate,
			FullyApproved: a.FullyApproved,
		}
		if !a.FullyApproved {
			decs[owner.req].Proposals = append(decs[owner.req].Proposals, proposals[propIdx])
			propIdx++
		}
	}

	now := o.Now().UTC()
	for i := range decs {
		buildDecision(&reqs[i], &decs[i], &o, now)
	}
	return decs, nil
}

// buildDecision assigns the status and materializes the contract for one
// decided request.
func buildDecision(req *Request, d *Decision, o *Options, now time.Time) {
	full := true
	for _, h := range d.Hoses {
		if !h.FullyApproved {
			full = false
			break
		}
	}
	switch {
	case full:
		d.Status = StatusApproved
	case req.Negotiate:
		d.Status = StatusNegotiated
	default:
		d.Status = StatusRejected
		return
	}
	if req.NPG == hose.DummyNPG {
		return // balancing filler is not a real customer
	}
	start := now
	if req.StartUnix != 0 {
		start = time.Unix(req.StartUnix, 0).UTC()
	}
	end := start.Add(forecast.QuarterDays * 24 * time.Hour) // granted contracts run one quarter
	c := &contract.Contract{NPG: req.NPG, SLO: o.slo(req), Approved: true}
	for hi := range req.Hoses {
		h := &req.Hoses[hi]
		rate := d.Hoses[hi].Approved
		if d.Status == StatusApproved {
			rate = h.Rate // approved in full: grant the exact ask
		}
		c.Entitlements = append(c.Entitlements, contract.Entitlement{
			NPG: req.NPG, Class: h.Class, Region: h.Region,
			Direction: h.Direction, Rate: rate, Start: start, End: end,
		})
	}
	d.Contract = c
}

// FormatDecision renders one decision in the fixed text form shared by the
// batch CLI and grantd — the byte-identity surface the determinism tests
// pin. IDs and transport errors are excluded on purpose.
func FormatDecision(w *strings.Builder, d *Decision) {
	requested, granted := 0.0, d.Granted()
	for _, h := range d.Hoses {
		requested += h.Requested
	}
	fmt.Fprintf(w, "%s: %s  %d hoses, %.1fG of %.1fG granted\n",
		d.NPG, strings.ToUpper(string(d.Status)), len(d.Hoses), granted/1e9, requested/1e9)
	for _, h := range d.Hoses {
		status := "FULL"
		if !h.FullyApproved {
			status = "PARTIAL"
		}
		fmt.Fprintf(w, "  %-48s %10.1fG of %10.1fG  %s\n", h.Key, h.Approved/1e9, h.Requested/1e9, status)
	}
	for _, p := range d.Proposals {
		fmt.Fprintf(w, "  proposal: %s admittable %.1fG (short %.1fG), alternatives %v\n",
			p.Hose.Key(), p.AdmittableRate/1e9, p.Shortfall/1e9, p.AlternativeRegions)
		if p.CounterOffer != nil {
			fmt.Fprintf(w, "  counter-offer: %s at %.1fG (%d evals)\n",
				p.CounterOffer.Key(), p.CounterOffer.Rate/1e9, p.Evals)
		}
	}
	if d.Contract != nil {
		total := 0.0
		for _, e := range d.Contract.Entitlements {
			total += e.Rate
		}
		fmt.Fprintf(w, "  contract: SLO %.4f, %d entitlements, %.1fG total\n",
			float64(d.Contract.SLO), len(d.Contract.Entitlements), total/1e9)
	}
}

// FormatDecisions renders decisions in order, one block each.
func FormatDecisions(decs []Decision) string {
	var b strings.Builder
	for i := range decs {
		FormatDecision(&b, &decs[i])
	}
	return b.String()
}

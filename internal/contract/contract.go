// Package contract defines the vocabulary of the entitlement framework: the
// Network Product Group (NPG) identity, QoS classes, and the entitlement
// contract itself — the agreement between the network team and each service
// team described in §3.2:
//
//	An entitlement contract specifies (a) a network SLO target, represented
//	by network availability, e.g. 0.9998; and (b) a list of bandwidth
//	entitlements <NPG, QoS class, region, entitled rate, enforcement period>.
//
// It also encodes the accountability demarcation the contract exists to
// provide: within entitlement + network failure → network team; above
// entitlement → service team.
package contract

import (
	"errors"
	"fmt"
	"time"

	"entitlement/internal/topology"
)

// NPG identifies a Network Product Group (a service team); the paper uses
// "NPG" and "service" interchangeably.
type NPG string

// Class is a QoS priority bucket. The paper's backbone carries four tiers
// c1..c4 in decreasing priority, and the approval algorithm walks subclasses
// from the most premium (c1_low) to the least (c4_high) — Algorithm 2.
type Class int

// QoS classes in strict decreasing priority order.
const (
	C1Low Class = iota
	C1High
	C2Low
	C2High
	C3Low
	C3High
	C4Low
	C4High
	numClasses
)

// ClassA and ClassB are the figure-level aliases used in §2's traffic
// distribution plots ("a high QoS class" / "a low QoS class").
const (
	ClassA = C2Low
	ClassB = C3Low
)

// Classes returns every class in priority order (most premium first).
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Tier returns the class tier 1..4 (c1..c4).
func (c Class) Tier() int { return int(c)/2 + 1 }

// Valid reports whether c is a defined class.
func (c Class) Valid() bool { return c >= C1Low && c < numClasses }

// String returns the canonical name, e.g. "c1_low".
func (c Class) String() string {
	if !c.Valid() {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	sub := "low"
	if int(c)%2 == 1 {
		sub = "high"
	}
	return fmt.Sprintf("c%d_%s", c.Tier(), sub)
}

// ParseClass parses the canonical class name.
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("contract: unknown class %q", s)
}

// Direction distinguishes egress (region → rest of WAN) from ingress hoses.
type Direction int

// Hose directions.
const (
	Egress Direction = iota
	Ingress
)

// String returns "egress" or "ingress".
func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// ParseDirection parses a direction name. The empty string is egress: wire
// frames older than the field omit it, and egress is all they could ask for.
func ParseDirection(s string) (Direction, error) {
	switch s {
	case "", Egress.String():
		return Egress, nil
	case Ingress.String():
		return Ingress, nil
	}
	return 0, fmt.Errorf("contract: unknown direction %q", s)
}

// SLO is an availability target, e.g. 0.9998 — the fraction of time all of
// an NPG's in-entitlement traffic must be admitted by the network.
type SLO float64

// Validate checks the SLO lies in (0, 1].
func (s SLO) Validate() error {
	if s <= 0 || s > 1 {
		return fmt.Errorf("contract: SLO %v out of (0,1]", float64(s))
	}
	return nil
}

// Entitlement is one row of a contract: the five-field tuple of §3.2. The
// first three fields delineate a set of flows; Rate and the period set the
// maximum supported bits/s for those flows during the period.
type Entitlement struct {
	NPG       NPG
	Class     Class
	Region    topology.Region
	Direction Direction
	Rate      float64 // bits per second
	Start     time.Time
	End       time.Time
}

// Validate checks field-level invariants.
func (e *Entitlement) Validate() error {
	if e.NPG == "" {
		return errors.New("contract: entitlement missing NPG")
	}
	if !e.Class.Valid() {
		return fmt.Errorf("contract: entitlement has invalid class %d", int(e.Class))
	}
	if e.Region == "" {
		return errors.New("contract: entitlement missing region")
	}
	if e.Rate < 0 {
		return fmt.Errorf("contract: negative entitled rate %v", e.Rate)
	}
	if !e.End.After(e.Start) {
		return fmt.Errorf("contract: enforcement period [%v, %v) is empty", e.Start, e.End)
	}
	return nil
}

// ActiveAt reports whether the enforcement period covers t.
func (e *Entitlement) ActiveAt(t time.Time) bool {
	return !t.Before(e.Start) && t.Before(e.End)
}

// Key returns the flow-set identity (NPG, class, region, direction) used to
// index entitlements in the database and at the agents.
func (e *Entitlement) Key() string {
	return fmt.Sprintf("%s/%s/%s/%s", e.NPG, e.Class, e.Region, e.Direction)
}

// Contract is the agreement between the network team and one NPG.
type Contract struct {
	NPG          NPG
	SLO          SLO
	Entitlements []Entitlement
	// Approved marks contracts that passed the §4.3 approval pipeline and
	// are therefore enforced (and SLO-guaranteed).
	Approved bool
}

// Validate checks the contract and all of its entitlements.
func (c *Contract) Validate() error {
	if c.NPG == "" {
		return errors.New("contract: missing NPG")
	}
	if err := c.SLO.Validate(); err != nil {
		return err
	}
	for i := range c.Entitlements {
		e := &c.Entitlements[i]
		if err := e.Validate(); err != nil {
			return fmt.Errorf("entitlement %d: %w", i, err)
		}
		if e.NPG != c.NPG {
			return fmt.Errorf("contract: entitlement %d belongs to %q, contract is for %q", i, e.NPG, c.NPG)
		}
	}
	return nil
}

// EntitledRate returns the contract's rate for the flow set, or 0 when none
// is active at t.
func (c *Contract) EntitledRate(class Class, region topology.Region, dir Direction, t time.Time) float64 {
	total := 0.0
	for i := range c.Entitlements {
		e := &c.Entitlements[i]
		if e.Class == class && e.Region == region && e.Direction == dir && e.ActiveAt(t) {
			total += e.Rate
		}
	}
	return total
}

// Party identifies who is accountable for a disruption under the contract's
// demarcation rule (§3.2).
type Party int

// Accountability outcomes.
const (
	// NoBreach: traffic within entitlement and fully admitted.
	NoBreach Party = iota
	// NetworkTeam: the NPG stayed within its entitled rate but the network
	// failed to support it.
	NetworkTeam
	// ServiceTeam: the NPG generated traffic above its entitled rate.
	ServiceTeam
)

// String names the accountable party.
func (p Party) String() string {
	switch p {
	case NetworkTeam:
		return "network-team"
	case ServiceTeam:
		return "service-team"
	default:
		return "no-breach"
	}
}

// Accountability applies the demarcation rule: if the NPG generated traffic
// within the entitled rate and the network could not support it, the network
// team is accountable; traffic above the entitled rate makes the NPG
// accountable; otherwise there is no breach.
func Accountability(entitledRate, actualRate float64, admitted bool) Party {
	if actualRate > entitledRate {
		return ServiceTeam
	}
	if !admitted {
		return NetworkTeam
	}
	return NoBreach
}

package contract

import (
	"testing"
	"testing/quick"
	"time"
)

var (
	t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 = time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
)

func validEntitlement() Entitlement {
	return Entitlement{
		NPG: "Ads", Class: ClassA, Region: "A", Direction: Egress,
		Rate: 1e12, Start: t0, End: t1,
	}
}

func TestClassOrderingAndNames(t *testing.T) {
	classes := Classes()
	if len(classes) != 8 {
		t.Fatalf("Classes() = %d entries, want 8", len(classes))
	}
	wantNames := []string{"c1_low", "c1_high", "c2_low", "c2_high", "c3_low", "c3_high", "c4_low", "c4_high"}
	for i, c := range classes {
		if c.String() != wantNames[i] {
			t.Errorf("class %d = %q, want %q", i, c, wantNames[i])
		}
		if !c.Valid() {
			t.Errorf("class %v invalid", c)
		}
	}
	// Priority ordering: c1_low most premium.
	if classes[0] != C1Low || classes[len(classes)-1] != C4High {
		t.Error("priority order wrong")
	}
}

func TestClassTier(t *testing.T) {
	cases := map[Class]int{C1Low: 1, C1High: 1, C2Low: 2, C4High: 4}
	for c, want := range cases {
		if got := c.Tier(); got != want {
			t.Errorf("%v.Tier() = %d, want %d", c, got, want)
		}
	}
}

func TestClassInvalidString(t *testing.T) {
	if got := Class(99).String(); got != "Class(99)" {
		t.Errorf("invalid class string = %q", got)
	}
	if Class(99).Valid() {
		t.Error("Class(99) reported valid")
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("c9_low"); err == nil {
		t.Error("bogus class parsed")
	}
}

func TestDirectionString(t *testing.T) {
	if Egress.String() != "egress" || Ingress.String() != "ingress" {
		t.Error("Direction strings wrong")
	}
}

func TestParseDirection(t *testing.T) {
	for s, want := range map[string]Direction{"": Egress, "egress": Egress, "ingress": Ingress} {
		if got, err := ParseDirection(s); err != nil || got != want {
			t.Errorf("ParseDirection(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"Ingress", "in", "both"} {
		if _, err := ParseDirection(s); err == nil {
			t.Errorf("ParseDirection(%q) accepted", s)
		}
	}
}

func TestSLOValidate(t *testing.T) {
	for _, s := range []SLO{0.9998, 1, 0.5} {
		if err := s.Validate(); err != nil {
			t.Errorf("SLO %v rejected: %v", float64(s), err)
		}
	}
	for _, s := range []SLO{0, -0.1, 1.1} {
		if err := s.Validate(); err == nil {
			t.Errorf("SLO %v accepted", float64(s))
		}
	}
}

func TestEntitlementValidate(t *testing.T) {
	e := validEntitlement()
	if err := e.Validate(); err != nil {
		t.Fatalf("valid entitlement rejected: %v", err)
	}
	broken := []func(*Entitlement){
		func(e *Entitlement) { e.NPG = "" },
		func(e *Entitlement) { e.Class = Class(88) },
		func(e *Entitlement) { e.Region = "" },
		func(e *Entitlement) { e.Rate = -1 },
		func(e *Entitlement) { e.End = e.Start },
	}
	for i, breakIt := range broken {
		e := validEntitlement()
		breakIt(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEntitlementActiveAt(t *testing.T) {
	e := validEntitlement()
	if !e.ActiveAt(t0) {
		t.Error("inclusive start not active")
	}
	if e.ActiveAt(t1) {
		t.Error("exclusive end active")
	}
	if !e.ActiveAt(t0.Add(24 * time.Hour)) {
		t.Error("middle not active")
	}
	if e.ActiveAt(t0.Add(-time.Second)) {
		t.Error("before start active")
	}
}

func TestEntitlementKey(t *testing.T) {
	e := validEntitlement()
	if got := e.Key(); got != "Ads/c2_low/A/egress" {
		t.Errorf("Key = %q", got)
	}
}

func TestContractValidate(t *testing.T) {
	c := Contract{NPG: "Ads", SLO: 0.9998, Entitlements: []Entitlement{validEntitlement()}}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid contract rejected: %v", err)
	}
	// Entitlement for a different NPG.
	other := validEntitlement()
	other.NPG = "Logging"
	bad := Contract{NPG: "Ads", SLO: 0.9998, Entitlements: []Entitlement{other}}
	if err := bad.Validate(); err == nil {
		t.Error("cross-NPG entitlement accepted")
	}
	noNPG := Contract{NPG: "", SLO: 0.5}
	if err := noNPG.Validate(); err == nil {
		t.Error("missing NPG accepted")
	}
	badSLO := Contract{NPG: "X", SLO: 0}
	if err := badSLO.Validate(); err == nil {
		t.Error("invalid SLO accepted")
	}
}

func TestContractEntitledRate(t *testing.T) {
	e1 := validEntitlement()
	e2 := validEntitlement()
	e2.Rate = 5e11
	c := Contract{NPG: "Ads", SLO: 0.9998, Entitlements: []Entitlement{e1, e2}}
	mid := t0.Add(time.Hour)
	if got := c.EntitledRate(ClassA, "A", Egress, mid); got != 1.5e12 {
		t.Errorf("EntitledRate = %v, want 1.5e12 (summed)", got)
	}
	if got := c.EntitledRate(ClassA, "B", Egress, mid); got != 0 {
		t.Errorf("wrong region rate = %v", got)
	}
	if got := c.EntitledRate(ClassA, "A", Ingress, mid); got != 0 {
		t.Errorf("wrong direction rate = %v", got)
	}
	if got := c.EntitledRate(ClassA, "A", Egress, t1.Add(time.Hour)); got != 0 {
		t.Errorf("expired rate = %v", got)
	}
}

func TestAccountability(t *testing.T) {
	// Above entitlement → service team, regardless of admission.
	if got := Accountability(100, 150, false); got != ServiceTeam {
		t.Errorf("over-rate = %v, want ServiceTeam", got)
	}
	if got := Accountability(100, 150, true); got != ServiceTeam {
		t.Errorf("over-rate admitted = %v, want ServiceTeam", got)
	}
	// Within entitlement, not admitted → network team.
	if got := Accountability(100, 80, false); got != NetworkTeam {
		t.Errorf("under-rate dropped = %v, want NetworkTeam", got)
	}
	// Within entitlement, admitted → no breach.
	if got := Accountability(100, 80, true); got != NoBreach {
		t.Errorf("healthy = %v, want NoBreach", got)
	}
}

func TestPartyString(t *testing.T) {
	if NetworkTeam.String() != "network-team" || ServiceTeam.String() != "service-team" || NoBreach.String() != "no-breach" {
		t.Error("Party strings wrong")
	}
}

// Property: accountability is total and consistent — exactly one party per
// (entitled, actual, admitted) combination, and the service team is blamed
// iff actual > entitled.
func TestAccountabilityProperty(t *testing.T) {
	f := func(entitled, actual uint16, admitted bool) bool {
		e, a := float64(entitled), float64(actual)
		p := Accountability(e, a, admitted)
		if a > e {
			return p == ServiceTeam
		}
		if !admitted {
			return p == NetworkTeam
		}
		return p == NoBreach
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package contractdb

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/wire"
	schemav1 "entitlement/schema/v1"
)

var (
	t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 = time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
)

func adsContract(approved bool) contract.Contract {
	return contract.Contract{
		NPG: "Ads", SLO: 0.9998, Approved: approved,
		Entitlements: []contract.Entitlement{{
			NPG: "Ads", Class: contract.ClassA, Region: "A",
			Direction: contract.Egress, Rate: 1e12, Start: t0, End: t1,
		}},
	}
}

func TestStorePutGetList(t *testing.T) {
	s := NewStore()
	if err := s.Put(adsContract(true)); err != nil {
		t.Fatal(err)
	}
	c, ok := s.Get("Ads")
	if !ok || c.NPG != "Ads" {
		t.Errorf("Get = %+v, %v", c, ok)
	}
	logging := contract.Contract{NPG: "Logging", SLO: 0.999, Approved: true}
	if err := s.Put(logging); err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 2 || list[0].NPG != "Ads" || list[1].NPG != "Logging" {
		t.Errorf("List = %v", list)
	}
	s.Delete("Ads")
	if _, ok := s.Get("Ads"); ok {
		t.Error("deleted contract found")
	}
}

func TestStorePutInvalid(t *testing.T) {
	s := NewStore()
	bad := adsContract(true)
	bad.SLO = 2
	if err := s.Put(bad); err == nil {
		t.Error("invalid contract accepted")
	}
}

func TestEntitledRate(t *testing.T) {
	s := NewStore()
	s.Put(adsContract(true))
	mid := t0.Add(24 * time.Hour)

	rate, found, err := s.EntitledRate("Ads", contract.ClassA, "A", contract.Egress, mid)
	if err != nil || !found || rate != 1e12 {
		t.Errorf("EntitledRate = %v %v %v", rate, found, err)
	}
	// Wrong class: not found.
	if _, found, _ := s.EntitledRate("Ads", contract.C4High, "A", contract.Egress, mid); found {
		t.Error("wrong class found")
	}
	// Expired period.
	if _, found, _ := s.EntitledRate("Ads", contract.ClassA, "A", contract.Egress, t1.Add(time.Hour)); found {
		t.Error("expired entitlement found")
	}
	// Unknown NPG.
	if _, found, _ := s.EntitledRate("Nope", contract.ClassA, "A", contract.Egress, mid); found {
		t.Error("unknown NPG found")
	}
}

func TestEntitledRateUnapprovedNotEnforced(t *testing.T) {
	s := NewStore()
	s.Put(adsContract(false))
	_, found, err := s.EntitledRate("Ads", contract.ClassA, "A", contract.Egress, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("unapproved contract enforced")
	}
}

func TestEntitledRateZeroEntitlement(t *testing.T) {
	// An explicit zero-rate entitlement is "found" (entitled to nothing),
	// distinct from having no entitlement at all.
	s := NewStore()
	c := contract.Contract{
		NPG: "Quiet", SLO: 0.99, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: "Quiet", Class: contract.ClassB, Region: "B",
			Direction: contract.Egress, Rate: 0, Start: t0, End: t1,
		}},
	}
	if err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	rate, found, err := s.EntitledRate("Quiet", contract.ClassB, "B", contract.Egress, t0.Add(time.Hour))
	if err != nil || !found || rate != 0 {
		t.Errorf("zero entitlement = %v %v %v, want 0 true nil", rate, found, err)
	}
}

func TestServerClient(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	srv := NewServer(l, store)
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Upload via client, query via client.
	if err := c.Put(adsContract(true)); err != nil {
		t.Fatal(err)
	}
	rate, found, err := c.EntitledRate("Ads", contract.ClassA, "A", contract.Egress, t0.Add(time.Hour))
	if err != nil || !found || rate != 1e12 {
		t.Errorf("remote EntitledRate = %v %v %v", rate, found, err)
	}
	list, err := c.List()
	if err != nil || len(list) != 1 || list[0].NPG != "Ads" {
		t.Errorf("remote List = %v, %v", list, err)
	}
	// Invalid contract rejected remotely.
	bad := adsContract(true)
	bad.NPG = ""
	bad.Entitlements = nil
	if err := c.Put(bad); err == nil {
		t.Error("remote invalid contract accepted")
	}
	// Ingress direction round-trips.
	if _, found, err := c.EntitledRate("Ads", contract.ClassA, "A", contract.Ingress, t0.Add(time.Hour)); err != nil || found {
		t.Errorf("ingress query = %v %v", found, err)
	}
}

// TestServerParsesDirectionStrictly: a direction the server does not know is
// an error on both codecs — it used to be served the egress entitlement —
// while the empty string (frames older than the field) stays egress.
func TestServerParsesDirectionStrictly(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	both := adsContract(true)
	in := both.Entitlements[0]
	in.Direction, in.Rate = contract.Ingress, 2e11
	both.Entitlements = append(both.Entitlements, in)
	if err := store.Put(both); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, store)
	defer srv.Close()

	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			c, err := wire.DialOpts(srv.Addr(), wire.ClientOptions{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			query := func(dir string) (schemav1.DBRateReply, error) {
				var r schemav1.DBRateReply
				err := c.Call("entitled_rate", &schemav1.DBRateQuery{
					NPG: "Ads", Class: contract.ClassA.String(), Region: "A",
					Dir: dir, AtUnix: t0.Add(time.Hour).Unix(),
				}, &r)
				return r, err
			}
			for dir, want := range map[string]float64{"": 1e12, "egress": 1e12, "ingress": 2e11} {
				if r, err := query(dir); err != nil || !r.Found || r.Rate != want {
					t.Errorf("dir %q = %+v, %v, want rate %g", dir, r, err, want)
				}
			}
			for _, dir := range []string{"Ingress", "in", "sideways"} {
				var re *wire.RemoteError
				if r, err := query(dir); !errors.As(err, &re) || !strings.Contains(re.Message, "unknown direction") {
					t.Errorf("dir %q = %+v, %v, want an unknown-direction RemoteError", dir, r, err)
				}
			}
		})
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	s.Put(adsContract(true))
	s.Put(contract.Contract{NPG: "Logging", SLO: 0.99, Approved: false})
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if len(restored.List()) != 2 {
		t.Fatalf("restored %d contracts", len(restored.List()))
	}
	rate, found, err := restored.EntitledRate("Ads", contract.ClassA, "A", contract.Egress, t0.Add(time.Hour))
	if err != nil || !found || rate != 1e12 {
		t.Errorf("restored rate = %v %v %v", rate, found, err)
	}
	// Entitlement period times survive the round trip.
	c, _ := restored.Get("Ads")
	if !c.Entitlements[0].Start.Equal(t0) {
		t.Errorf("start = %v, want %v", c.Entitlements[0].Start, t0)
	}
}

func TestLoadFromRejectsInvalid(t *testing.T) {
	s := NewStore()
	s.Put(adsContract(true))
	// Malformed JSON.
	if err := s.LoadFrom(strings.NewReader("{not json")); err == nil {
		t.Error("malformed snapshot accepted")
	}
	// Invalid contract in snapshot.
	if err := s.LoadFrom(strings.NewReader(`[{"NPG":"","SLO":0.5}]`)); err == nil {
		t.Error("invalid contract accepted")
	}
	// Store unchanged after failed loads.
	if _, ok := s.Get("Ads"); !ok {
		t.Error("failed load wiped the store")
	}
}

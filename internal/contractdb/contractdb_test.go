package contractdb

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/obs/trace"
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

// TestServerDurableStoreSLOAndErrors serves a durable store over TCP: a put
// acknowledged to a client is on disk, the SLO queries read the approval
// record, malformed requests are errors on the wire, and a dead server is an
// error on every client method rather than "no contract".
func TestServerDurableStoreSLOAndErrors(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(l, store, wire.ServerOptions{Service: "contractdb"})
	c := Connect(srv.Addr(), wire.ClientOptions{}) // dials on first use
	defer c.Close()
	c.SetSpan(trace.Context{})
	if err := c.Put(adsContract(true)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(contract.Contract{NPG: "Logging", SLO: 0.99, Approved: false}); err != nil {
		t.Fatal(err)
	}
	if slo, found, err := c.SLO("Ads"); err != nil || !found || slo != 0.9998 {
		t.Errorf("SLO(Ads) = %v %v %v", slo, found, err)
	}
	for _, npg := range []contract.NPG{"Logging", "Nope"} { // unapproved, unknown
		if _, found, err := c.SLO(npg); err != nil || found {
			t.Errorf("SLO(%s) = found %v, %v", npg, found, err)
		}
	}
	if got := store.Objectives(); len(got) != 1 || got["Ads"] != 0.9998 {
		t.Errorf("Objectives = %v", got)
	}

	raw, err := wire.DialOpts(srv.Addr(), wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for name, call := range map[string]func() error{
		"unknown method":   func() error { return raw.Call("drop_table", nil, nil) },
		"unknown class":    func() error { return raw.Call("entitled_rate", &schemav1.DBRateQuery{NPG: "Ads", Class: "gold"}, nil) },
		"rate payload":     func() error { return raw.Call("entitled_rate", []int{1}, nil) },
		"slo payload":      func() error { return raw.Call("get_slo", []int{1}, nil) },
		"contract payload": func() error { return raw.Call("put_contract", "not a contract", nil) },
	} {
		var re *wire.RemoteError
		if err := call(); !errors.As(err, &re) {
			t.Errorf("%s: %v, want a RemoteError", name, err)
		}
	}

	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.EntitledRate("Ads", contract.ClassA, "A", contract.Egress, t0.Add(time.Hour)); err == nil {
		t.Error("EntitledRate against a dead server reported no error")
	}
	if _, _, err := c.SLO("Ads"); err == nil {
		t.Error("SLO against a dead server reported no error")
	}
	if _, err := c.List(); err == nil {
		t.Error("List against a dead server reported no error")
	}
	if _, err := Dial(srv.Addr()); err == nil {
		t.Error("dialed a dead server")
	}

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.List(); len(got) != 2 || got[0].NPG != "Ads" || got[1].NPG != "Logging" {
		t.Errorf("puts acknowledged over the wire, after a restart: %v", got)
	}
	if len(SchemaDefs()) == 0 {
		t.Error("no schema definitions registered")
	}
}

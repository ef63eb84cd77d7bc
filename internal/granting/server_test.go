package granting

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/hose"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

func startServer(t *testing.T, sink Sink) (*Service, *Server) {
	t.Helper()
	topo := topology.FigureSix()
	svc := NewService(topo, sink, testOptions(0))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, svc)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

// TestServerRoundTrip drives the full RPC surface over a real socket, once
// per codec: grantd's payloads are JSON inside whichever envelope the
// connection negotiated, so the decisions a client decodes must be
// byte-identical across the two.
func TestServerRoundTrip(t *testing.T) {
	decided := map[wire.Codec][]byte{}
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			decisions := serverRoundTrip(t, codec)
			b, err := json.Marshal(decisions)
			if err != nil {
				t.Fatal(err)
			}
			decided[codec] = b
		})
	}
	if !bytes.Equal(decided[wire.CodecJSON], decided[wire.CodecBinary]) {
		t.Errorf("decisions diverge across codecs:\njson   = %s\nbinary = %s", decided[wire.CodecJSON], decided[wire.CodecBinary])
	}
}

// serverRoundTrip runs submit/decide/status/report against a fresh service
// over codec and returns every decision the client decoded, in order.
func serverRoundTrip(t *testing.T, codec wire.Codec) []*Decision {
	db := contractdb.NewStore()
	_, srv := startServer(t, db)
	client, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if got := client.c.NegotiatedCodec(); got != codec {
		t.Fatalf("negotiated %v, want %v", got, codec)
	}
	var decisions []*Decision

	// Submit + Decide: a negotiable ask lands a contract.
	dec, err := submitOne(client, Request{
		NPG: "Web", Negotiate: true, StartUnix: testStart.Unix(),
		Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Direction: contract.Egress, Rate: 40e9}},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != StatusApproved && dec.Status != StatusNegotiated {
		t.Fatalf("expected a grant, got %s (%s)", dec.Status, dec.Err)
	}
	if dec.Contract == nil || db.Len() != 1 {
		t.Fatalf("granted contract not stored (db has %d)", db.Len())
	}
	decisions = append(decisions, dec)

	// Status on a decided id, then on garbage.
	state, sd, err := client.Status(dec.ID)
	if err != nil || state != "decided" || sd == nil {
		t.Fatalf("status(%s) = %s, %v, %v", dec.ID, state, sd, err)
	}
	decisions = append(decisions, sd)
	state, _, err = client.Status("g-999999")
	if err != nil || state != "unknown" {
		t.Fatalf("status(bogus) = %s, %v", state, err)
	}

	// An oversubscribed ask over the wire: rejection with a proposal.
	dec, err = submitOne(client, Request{
		NPG: "Greedy", StartUnix: testStart.Unix(),
		Hoses: []hose.Request{{Class: contract.C3Low, Region: "B", Direction: contract.Egress, Rate: 9e12}},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != StatusRejected {
		t.Fatalf("oversubscribed ask not rejected: %s", dec.Status)
	}
	if len(dec.Proposals) == 0 || dec.Proposals[0].Shortfall <= 0 {
		t.Fatalf("rejection carries no counter-proposal: %+v", dec.Proposals)
	}
	if dec.Contract != nil || db.Len() != 1 {
		t.Fatal("rejected ask must not store a contract")
	}
	decisions = append(decisions, dec)

	// Group submission keeps per-request ids aligned.
	ids, err := client.SubmitGroup([]Request{
		{NPG: "G1", Negotiate: true, StartUnix: testStart.Unix(),
			Hoses: []hose.Request{{Class: contract.C3Low, Region: "C", Direction: contract.Egress, Rate: 5e9}}},
		{NPG: "G2", Negotiate: true, StartUnix: testStart.Unix(),
			Hoses: []hose.Request{{Class: contract.C3Low, Region: "D", Direction: contract.Egress, Rate: 5e9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("group returned %d ids", len(ids))
	}
	for i, id := range ids {
		d, err := client.Decide(id, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		want := contract.NPG([]string{"G1", "G2"}[i])
		if d.NPG != want {
			t.Errorf("id %s decided for %s, want %s", id, d.NPG, want)
		}
		decisions = append(decisions, d)
	}

	// Report reflects the traffic.
	rep, err := client.Report(10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Decided != 4 || len(rep.Decisions) != 4 {
		t.Errorf("report: %+v with %d decisions", rep.Stats, len(rep.Decisions))
	}
	for i := range rep.Decisions {
		decisions = append(decisions, &rep.Decisions[i])
	}

	// An invalid request, a malformed submit payload and an unknown method
	// are each rejected server-side with a RemoteError, and the connection
	// stays usable for the next call.
	var re *wire.RemoteError
	if _, err := client.Submit(Request{}); !errors.As(err, &re) {
		t.Errorf("empty request over the wire: %v, want RemoteError", err)
	}
	if err := client.c.Call("submit", "not-an-object", nil); !errors.As(err, &re) {
		t.Errorf("malformed submit payload: %v, want RemoteError", err)
	}
	if err := client.c.Call("no-such-method", nil, nil); !errors.As(err, &re) {
		t.Errorf("unknown method: %v, want RemoteError", err)
	}
	if state, _, err := client.Status(dec.ID); err != nil || state != "decided" {
		t.Errorf("connection unusable after rejections: status = %s, %v", state, err)
	}
	return decisions
}

// submitOne submits one request through SubmitWait and returns its decision.
func submitOne(c *Client, req Request, timeout time.Duration) (*Decision, error) {
	decs, _, err := c.SubmitWait([]Request{req}, timeout)
	if err != nil {
		return nil, err
	}
	return &decs[0], nil
}

// TestSubmitWaitHonorsShedHint: with the decider parked and the one queue
// slot taken, a group submitted through SubmitWait is shed, waits out the
// retry-after hint and is decided once the queue drains; a remote error is
// not retried and returns at once.
func TestSubmitWaitHonorsShedHint(t *testing.T) {
	sink := newBlockingSink()
	opts := testOptions(0)
	opts.MaxQueue = 1
	opts.ShedRetryAfter = 20 * time.Millisecond
	svc := NewService(topology.FigureSix(), sink, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, svc)
	defer func() {
		srv.Close()
		svc.Close()
	}()
	if _, err := svc.Submit(approvable(0)); err != nil {
		t.Fatal(err)
	}
	<-sink.entered
	if _, err := svc.Submit(approvable(1)); err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	type result struct {
		decs []Decision
		err  error
	}
	done := make(chan result, 1)
	go func() {
		decs, _, err := client.SubmitWait([]Request{approvable(2)}, time.Minute)
		done <- result{decs, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().Shed == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(sink.release)
			t.Fatal("the group was never shed")
		}
	}
	close(sink.release)
	r := <-done
	if r.err != nil {
		t.Fatalf("SubmitWait after the shed hint: %v", r.err)
	}
	if len(r.decs) != 1 || r.decs[0].NPG != "Web2" || r.decs[0].Status != StatusApproved {
		t.Fatalf("decisions = %+v, want Web2 approved", r.decs)
	}

	start := time.Now()
	var re *wire.RemoteError
	if _, _, err := client.SubmitWait([]Request{{}}, time.Minute); !errors.As(err, &re) {
		t.Fatalf("invalid request: %v, want RemoteError", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("remote error returned after %v, want at once", waited)
	}
}

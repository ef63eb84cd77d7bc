// The wire-RPC surface of the granting service: the same internal/wire
// protocol the contract database and rate store speak, so one client stack
// (deadlines, reconnect, codec negotiation, span propagation) covers the
// whole control plane. grantd's payloads are JSON inside whichever envelope
// the connection negotiated; wire.Payload.Decode reads them from both.
//
// Methods:
//
//	submit  {requests: [...]}        → {ids: [...]}     (async; group = one pass)
//	decide  {id, wait_ms}            → Decision          (blocks up to wait_ms)
//	status  {id}                     → {state, decision}
//	report  {recent}                 → {stats, decisions}

package granting

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
)

type submitArgs struct {
	Requests []Request `json:"requests"`
}

type submitReply struct {
	IDs []string `json:"ids"`
	// Trace is the 32-hex trace ID of the submission's span tree. When the
	// caller propagated its own span context it is the caller's trace ID;
	// otherwise the service self-roots one and reports it here so the
	// submitter can still follow the grant through /debug/traces.
	Trace string `json:"trace,omitempty"`
}

type decideArgs struct {
	ID     string `json:"id"`
	WaitMS int64  `json:"wait_ms"`
}

type statusArgs struct {
	ID string `json:"id"`
}

type statusReply struct {
	State    string    `json:"state"`
	Decision *Decision `json:"decision,omitempty"`
}

type reportArgs struct {
	Recent int `json:"recent"`
}

// Report is the service's introspection snapshot.
type Report struct {
	Stats     Stats      `json:"stats"`
	Decisions []Decision `json:"decisions,omitempty"`
}

// maxDecideWait caps how long one decide RPC may hold its connection; the
// client loops, so long waits are a sequence of bounded calls that keep
// working under the wire layer's per-call deadline.
const maxDecideWait = 5 * time.Second

// Server exposes a Service over TCP.
type Server struct {
	svc *Service
	srv *wire.Server
}

// NewServer serves svc on l with default wire options.
func NewServer(l net.Listener, svc *Service) *Server {
	return NewServerOpts(l, svc, wire.ServerOptions{})
}

// NewServerOpts serves svc on l with explicit wire options.
func NewServerOpts(l net.Listener, svc *Service, opts wire.ServerOptions) *Server {
	s := &Server{svc: svc}
	if opts.Service == "" {
		opts.Service = "grantd"
	}
	s.srv = wire.NewServerPayload(l, s.handle, opts)
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.srv.Addr().String() }

// Close shuts the RPC listener down (the Service keeps running; close it
// separately).
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handle(tc trace.Context, method string, p wire.Payload) (interface{}, error) {
	switch method {
	case "submit":
		var a submitArgs
		if err := p.Decode(&a); err != nil {
			return nil, err
		}
		ids, traceID, err := s.svc.SubmitGroupCtx(tc, a.Requests)
		if err != nil {
			return nil, err
		}
		return submitReply{IDs: ids, Trace: traceID}, nil
	case "decide":
		var a decideArgs
		if err := p.Decode(&a); err != nil {
			return nil, err
		}
		wait := time.Duration(a.WaitMS) * time.Millisecond
		if wait <= 0 || wait > maxDecideWait {
			wait = maxDecideWait
		}
		d, err := s.svc.Wait(a.ID, wait)
		if err != nil {
			return nil, err
		}
		return d, nil
	case "status":
		var a statusArgs
		if err := p.Decode(&a); err != nil {
			return nil, err
		}
		state, d := s.svc.Status(a.ID)
		return statusReply{State: state, Decision: d}, nil
	case "report":
		var a reportArgs
		if !p.Empty() {
			if err := p.Decode(&a); err != nil {
				return nil, err
			}
		}
		if a.Recent <= 0 {
			a.Recent = 20
		}
		return Report{Stats: s.svc.Stats(), Decisions: s.svc.Recent(a.Recent)}, nil
	default:
		return nil, fmt.Errorf("granting: unknown method %q", method)
	}
}

// Client is the remote granting service.
type Client struct {
	c *wire.Client
}

// Dial connects with default wire options.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, wire.ClientOptions{})
}

// DialOpts connects with explicit failure options.
func DialOpts(addr string, opts wire.ClientOptions) (*Client, error) {
	c, err := wire.DialOpts(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// SetSpan forwards a span context into the wire client: subsequent calls
// join the caller's span tree across the wire.
func (c *Client) SetSpan(ctx trace.Context) { c.c.SetSpan(ctx) }

// Submit enqueues one request and returns its id.
func (c *Client) Submit(req Request) (string, error) {
	ids, err := c.SubmitGroup([]Request{req})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// SubmitGroup enqueues an atomic group (one risk pass).
func (c *Client) SubmitGroup(reqs []Request) ([]string, error) {
	ids, _, err := c.SubmitGroupTrace(reqs)
	return ids, err
}

// SubmitGroupTrace is SubmitGroup plus the trace ID of the submission's
// span tree on the server (the caller's own trace ID when a span context
// was forwarded via SetSpan, a server-rooted one otherwise).
func (c *Client) SubmitGroupTrace(reqs []Request) ([]string, string, error) {
	var r submitReply
	if err := c.c.Call("submit", submitArgs{Requests: reqs}, &r); err != nil {
		return nil, "", err
	}
	return r.IDs, r.Trace, nil
}

// Decide blocks until the decision for id lands or timeout elapses. It
// issues bounded decide RPCs in a loop so each call stays inside the wire
// layer's per-call deadline.
func (c *Client) Decide(id string, timeout time.Duration) (*Decision, error) {
	deadline := time.Now().Add(timeout)
	for {
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, ErrPending
		}
		if wait > maxDecideWait {
			wait = maxDecideWait
		}
		var d Decision
		err := c.c.Call("decide", decideArgs{ID: id, WaitMS: wait.Milliseconds()}, &d)
		if err == nil {
			return &d, nil
		}
		if !isPending(err) {
			return nil, err
		}
	}
}

// SubmitWait submits an atomic group and blocks for its decisions, returned
// in request order with the submission's trace ID. When the server sheds the
// submission under overload it honors the retry-after hint, backing off and
// resubmitting until the timeout budget runs out; the last overload error is
// returned if the queue never opens up. Any other error returns at once.
func (c *Client) SubmitWait(reqs []Request, timeout time.Duration) ([]Decision, string, error) {
	deadline := time.Now().Add(timeout)
	for {
		ids, traceID, err := c.SubmitGroupTrace(reqs)
		if err == nil {
			decs := make([]Decision, 0, len(ids))
			for _, id := range ids {
				d, err := c.Decide(id, time.Until(deadline))
				if err != nil {
					return nil, traceID, err
				}
				decs = append(decs, *d)
			}
			return decs, traceID, nil
		}
		var oe *wire.OverloadedError
		if !errors.As(err, &oe) {
			return nil, "", err
		}
		pause := oe.RetryAfter
		if pause <= 0 {
			pause = 100 * time.Millisecond
		}
		if time.Until(deadline) < pause {
			return nil, "", err
		}
		time.Sleep(pause)
	}
}

// Status asks for the request's state without blocking.
func (c *Client) Status(id string) (string, *Decision, error) {
	var r statusReply
	if err := c.c.Call("status", statusArgs{ID: id}, &r); err != nil {
		return "", nil, err
	}
	return r.State, r.Decision, nil
}

// Report fetches the stats snapshot plus recent decisions.
func (c *Client) Report(recent int) (*Report, error) {
	var r Report
	if err := c.c.Call("report", reportArgs{Recent: recent}, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }

// isPending recognizes the server-side ErrPending coming back as a
// RemoteError string.
func isPending(err error) bool {
	return err != nil && strings.Contains(err.Error(), "decision pending")
}

// Handler serves the Report over HTTP (mounted as /grants on the obs
// endpoint): text by default, JSON with ?format=json or an Accept header
// asking for application/json.
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rep := Report{Stats: s.Stats(), Decisions: s.Recent(20)}
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(rep)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := rep.Stats
		fmt.Fprintf(w, "granting: %d submitted, %d decided (%d approved, %d negotiated, %d rejected, %d errors)\n",
			st.Submitted, st.Decided, st.Approved, st.Negotiated, st.Rejected, st.Errors)
		fmt.Fprintf(w, "queue %d deep, %d batches, memo %d/%d hits, topology epoch %d\n\n",
			st.QueueDepth, st.Batches, st.MemoHits, st.MemoHits+st.MemoMisses, st.Epoch)
		for i := range rep.Decisions {
			var b strings.Builder
			FormatDecision(&b, &rep.Decisions[i])
			fmt.Fprintf(w, "[%s] %s", rep.Decisions[i].ID, b.String())
		}
	})
}

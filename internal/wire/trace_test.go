package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"

	"entitlement/internal/obs/trace"
)

// syncBuffer is a goroutine-safe log sink (the server logs from its
// connection goroutine).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func debugLogger(w *syncBuffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

var requestIDRE = regexp.MustCompile(`request_id=(\S+)`)

// TestRequestIDPropagatedToLogs is the trace-propagation contract: for one
// call, the SAME client-generated request ID appears in the client's span
// and in the server's span.
func TestRequestIDPropagatedToLogs(t *testing.T) {
	var clientLog, serverLog syncBuffer
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveJSON(l, ServerOptions{Logger: debugLogger(&serverLog)}, func(method string, _ json.RawMessage) (interface{}, error) {
		return map[string]string{"pong": method}, nil
	})
	defer srv.Close()

	c, err := DialOpts(l.Addr().String(), ClientOptions{Logger: debugLogger(&clientLog)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply map[string]string
	if err := c.Call("ping", nil, &reply); err != nil {
		t.Fatal(err)
	}
	srv.Close() // flush: the server span is written before the response, but close anyway

	m := requestIDRE.FindStringSubmatch(clientLog.String())
	if m == nil {
		t.Fatalf("no request_id in client log:\n%s", clientLog.String())
	}
	id := m[1]
	if id == "" {
		t.Fatal("empty request ID in client span")
	}
	if !strings.Contains(serverLog.String(), "request_id="+id) {
		t.Fatalf("request ID %s from the client span is missing from the server log:\n%s", id, serverLog.String())
	}
}

// TestCallPropagatesSpanTree is the cross-process tracing contract at the
// wire layer: with a span attached via SetSpan, one Call yields a wire.call
// span on the client parented under the caller's span, a wire.serve span on
// the server parented under the wire.call span, and the handler receives
// the serve span's context — one tree across both sides. The same hook ties
// the two sides' log spans together: under SetSpan the request ID starts
// with the trace ID, and loses it once the span is cleared.
func TestCallPropagatesSpanTree(t *testing.T) {
	var clientLog, serverLog syncBuffer
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var handlerCtx trace.Context
	srv := NewServerPayload(l, func(tc trace.Context, method string, _ Payload) (interface{}, error) {
		if method == "ping" {
			handlerCtx = tc
		}
		return nil, nil
	}, ServerOptions{Service: "srv", Logger: debugLogger(&serverLog)})
	defer srv.Close()
	c, err := DialOpts(l.Addr().String(), ClientOptions{Service: "cli", Logger: debugLogger(&clientLog)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	col := trace.Default()
	root := col.StartRoot("op")
	c.SetSpan(root.Context())
	if err := c.Call("ping", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !handlerCtx.Valid() {
		t.Fatal("handler received a zero trace context for a traced call")
	}
	if handlerCtx.TraceID() != root.TraceID() {
		t.Fatalf("handler context is on trace %s, caller is on %s", handlerCtx.TraceID(), root.TraceID())
	}
	c.SetSpan(trace.Context{})
	if err := c.Call("untraced", nil, nil); err != nil {
		t.Fatal(err)
	}
	root.SetError(errors.New("retain me")) // force tail sampling to keep the trace
	root.Finish()
	srv.Close() // the server logs before it responds, but close anyway

	for side, log := range map[string]*syncBuffer{"client": &clientLog, "server": &serverLog} {
		ids := requestIDRE.FindAllStringSubmatch(log.String(), -1)
		if len(ids) != 2 {
			t.Fatalf("%s: want 2 log spans, got %d:\n%s", side, len(ids), log.String())
		}
		if !strings.HasPrefix(ids[0][1], root.TraceID()+".") {
			t.Errorf("%s: traced request ID %q lacks the trace-ID prefix", side, ids[0][1])
		}
		if strings.HasPrefix(ids[1][1], root.TraceID()+".") {
			t.Errorf("%s: request ID %q still carries a cleared trace", side, ids[1][1])
		}
	}

	tree, ok := col.Tree(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not retained", root.TraceID())
	}
	byName := map[string]trace.SpanRecord{}
	for _, s := range tree.Spans {
		byName[s.Name] = s
	}
	call, ok := byName["wire.call.ping"]
	if !ok {
		t.Fatalf("no wire.call.ping span in tree: %+v", tree.Spans)
	}
	serve, ok := byName["wire.serve.ping"]
	if !ok {
		t.Fatalf("no wire.serve.ping span in tree: %+v", tree.Spans)
	}
	rootRec := byName["op"]
	if call.Parent != rootRec.SpanID {
		t.Errorf("wire.call.ping parent = %s, want root span %s", call.Parent, rootRec.SpanID)
	}
	if serve.Parent != call.SpanID {
		t.Errorf("wire.serve.ping parent = %s, want wire.call span %s", serve.Parent, call.SpanID)
	}
	if call.Service != "cli" || serve.Service != "srv" {
		t.Errorf("span services = %q/%q, want cli/srv", call.Service, serve.Service)
	}
	if serve.SpanID != handlerCtx.SpanID() {
		t.Errorf("handler context span %s is not the wire.serve span %s", handlerCtx.SpanID(), serve.SpanID)
	}
}

// TestSetSpanRaceWithConcurrentCalls pins the lock-free trace state: SetSpan
// swaps (between two spans and cleared) racing concurrent Calls must neither
// trip the race detector nor fail a call.
func TestSetSpanRaceWithConcurrentCalls(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveJSON(l, ServerOptions{}, func(string, json.RawMessage) (interface{}, error) { return nil, nil })
	defer srv.Close()
	c, err := DialOpts(l.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := trace.Default().StartRoot("race-root-a")
	defer a.Finish()
	b := trace.Default().StartRoot("race-root-b")
	defer b.Finish()
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				c.SetSpan(a.Context())
			case 1:
				c.SetSpan(b.Context())
			default:
				c.SetSpan(trace.Context{})
			}
		}
	}()
	var callers sync.WaitGroup
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < 50; i++ {
				if err := c.Call("m", nil, nil); err != nil {
					t.Errorf("Call under SetSpan race: %v", err)
					return
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	swapper.Wait()
	// Correctness here is "no race detector report and no failed call"; the
	// atomic snapshot makes a torn prefix/context pair unrepresentable.
}

// TestRequestIDOnErrors: both RemoteError and TransientError surface the
// request ID of the failed call.
func TestRequestIDOnErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveJSON(l, ServerOptions{}, func(method string, _ json.RawMessage) (interface{}, error) {
		return nil, fmt.Errorf("handler says no")
	})
	c, err := DialOpts(l.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Call("denied", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.RequestID == "" {
		t.Fatal("RemoteError without a request ID")
	}
	if !strings.Contains(re.Error(), re.RequestID) {
		t.Fatalf("RemoteError message %q does not include its request ID", re.Error())
	}

	srv.Close() // next call fails in transport
	err = c.Call("gone", nil, nil)
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("want TransientError, got %v", err)
	}
	if te.RequestID == "" {
		t.Fatal("TransientError without a request ID")
	}
	if !strings.Contains(te.Error(), te.RequestID) {
		t.Fatalf("TransientError message %q does not include its request ID", te.Error())
	}
}

// TestResponseIDMismatchBreaksConnection: a response carrying a different
// request's ID means the stream is desynced; the client must fail the call
// transiently and drop the connection, so the next call re-dials.
func TestResponseIDMismatchBreaksConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The first connection answers with a stranger's ID, the second
		// one correctly.
		for _, wrongID := range []bool{true, false} {
			server, err := l.Accept()
			if err != nil {
				return
			}
			var req Request
			if err := ReadMessage(server, &req); err == nil {
				id := req.ID
				if wrongID {
					id = "not-your-request"
				}
				WriteMessage(server, &Response{ID: id})
			}
			server.Close()
		}
	}()
	c, err := DialOpts(l.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("m", nil, nil)
	if !IsTransient(err) {
		t.Fatalf("want transient desync error, got %v", err)
	}
	if !strings.Contains(err.Error(), "not-your-request") {
		t.Fatalf("error %q does not explain the ID mismatch", err)
	}
	// Only a fresh connection reaches the second accept.
	if err := c.Call("m2", nil, nil); err != nil {
		t.Fatalf("call after desync did not re-dial: %v", err)
	}
	<-done
}

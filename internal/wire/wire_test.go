package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"entitlement/internal/obs/trace"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := map[string]interface{}{"hello": "world", "n": 42.0}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	if err := ReadMessage(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out["hello"] != "world" || out["n"] != 42.0 {
		t.Errorf("round trip = %v", out)
	}
}

func TestMessageMultipleFrames(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteMessage(&buf, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		var v int
		if err := ReadMessage(&buf, &v); err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Errorf("frame %d = %d", i, v)
		}
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteMessage(&buf, "payload")
	raw := buf.Bytes()[:buf.Len()-3]
	var v string
	if err := ReadMessage(bytes.NewReader(raw), &v); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestReadMessageOversized(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	var v interface{}
	if err := ReadMessage(bytes.NewReader(hdr), &v); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestWriteMessageUnmarshalable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, func() {}); err == nil {
		t.Error("function value marshaled")
	}
}

// serveJSON starts a server whose handler sees each payload as raw JSON
// bytes — the shape most tests here script against. It is the one place
// the suite adapts that shape to the package's single handler type.
func serveJSON(l net.Listener, opts ServerOptions, h func(method string, payload json.RawMessage) (interface{}, error)) *Server {
	return NewServerPayload(l, func(_ trace.Context, method string, p Payload) (interface{}, error) {
		return h(method, p.Bytes())
	}, opts)
}

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveJSON(l, ServerOptions{}, func(method string, payload json.RawMessage) (interface{}, error) {
		switch method {
		case "echo":
			var s string
			if err := json.Unmarshal(payload, &s); err != nil {
				return nil, err
			}
			return s, nil
		case "add":
			var args [2]int
			if err := json.Unmarshal(payload, &args); err != nil {
				return nil, err
			}
			return args[0] + args[1], nil
		case "fail":
			return nil, fmt.Errorf("deliberate failure")
		case "null":
			return nil, nil
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	})
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

func TestClientServerRPC(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := DialOpts(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var s string
	if err := c.Call("echo", "ping", &s); err != nil || s != "ping" {
		t.Errorf("echo = %q, %v", s, err)
	}
	var sum int
	if err := c.Call("add", [2]int{20, 22}, &sum); err != nil || sum != 42 {
		t.Errorf("add = %d, %v", sum, err)
	}
	// nil reply discards the payload.
	if err := c.Call("echo", "discard", nil); err != nil {
		t.Errorf("discarded call: %v", err)
	}
	// nil result from server.
	if err := c.Call("null", nil, nil); err != nil {
		t.Errorf("null call: %v", err)
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := DialOpts(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Method != "fail" || re.Message != "deliberate failure" {
		t.Errorf("RemoteError = %+v", re)
	}
	if re.Error() == "" {
		t.Error("empty error string")
	}
	// Connection still usable after a remote error.
	var s string
	if err := c.Call("echo", "still-alive", &s); err != nil || s != "still-alive" {
		t.Errorf("post-error call = %q, %v", s, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startEchoServer(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialOpts(addr, ClientOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				var sum int
				if err := c.Call("add", [2]int{i, j}, &sum); err != nil {
					errs <- err
					return
				}
				if sum != i+j {
					errs <- fmt.Errorf("sum = %d, want %d", sum, i+j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentCallsOneClient(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := DialOpts(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum int
			if err := c.Call("add", [2]int{i, 1}, &sum); err != nil || sum != i+1 {
				t.Errorf("call %d: sum=%d err=%v", i, sum, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, addr := startEchoServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	// New connections fail after close.
	if _, err := DialOpts(addr, ClientOptions{}); err == nil {
		t.Error("dial succeeded after close")
	}
}

func TestServerAddr(t *testing.T) {
	srv, addr := startEchoServer(t)
	if srv.Addr().String() != addr {
		t.Errorf("Addr = %v, want %v", srv.Addr(), addr)
	}
}

// Property: ReadMessage never panics on arbitrary input bytes — it either
// decodes or returns an error.
func TestReadMessageRobustnessProperty(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("ReadMessage panicked")
			}
		}()
		var v interface{}
		ReadMessage(bytes.NewReader(raw), &v)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: WriteMessage → ReadMessage round-trips arbitrary string maps.
func TestMessageRoundTripProperty(t *testing.T) {
	f := func(m map[string]string) bool {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		var out map[string]string
		if err := ReadMessage(&buf, &out); err != nil {
			return false
		}
		if len(out) != len(m) {
			return false
		}
		for k, v := range m {
			if out[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

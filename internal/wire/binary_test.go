package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"entitlement/internal/obs/trace"
	schemav1 "entitlement/schema/v1"
)

// startPayloadServer runs a small kv-flavored payload server: "put"/"get"
// speak the schema-binary kvstore shapes, "echo" stays JSON, "fail" and
// "shed" exercise the two error channels, "traceid" reports the span
// context the server saw, "jsonfield" decodes an untyped JSON object.
func startPayloadServer(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	data := map[string]float64{}
	srv := NewServerPayload(l, func(tc trace.Context, method string, p Payload) (interface{}, error) {
		switch method {
		case "put":
			var a schemav1.KVPut
			if err := p.Decode(&a); err != nil {
				return nil, err
			}
			mu.Lock()
			data[strings.Clone(a.Key)] = a.Value // Key may alias the frame buffer
			mu.Unlock()
			return nil, nil
		case "get":
			var k schemav1.KVKey
			if err := p.Decode(&k); err != nil {
				return nil, err
			}
			mu.Lock()
			v, ok := data[k.Key]
			mu.Unlock()
			return &schemav1.KVGetReply{Value: v, Found: ok}, nil
		case "echo":
			var s string
			if err := p.Decode(&s); err != nil {
				return nil, err
			}
			return s, nil
		case "fail":
			return nil, fmt.Errorf("deliberate failure")
		case "shed":
			return nil, &Overloaded{Err: fmt.Errorf("queue full"), RetryAfter: 250 * time.Millisecond}
		case "traceid":
			return tc.TraceID(), nil
		case "jsonfield":
			if p.binary {
				return nil, fmt.Errorf("JSON args arrived flagged schema-binary")
			}
			var a map[string]string
			if err := p.Decode(&a); err != nil {
				return nil, err
			}
			return a["field"], nil
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	}, opts)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// exerciseClient runs the cross-codec contract against one client: typed
// payloads round-trip, remote errors and overload sheds carry identical
// semantics, and a span context round-trips through the frame's Trace
// field. Every codec pairing must pass it unchanged.
func exerciseClient(t *testing.T, c *Client) {
	t.Helper()
	if err := c.Call("put", &schemav1.KVPut{Key: "rates/web/h1", Value: 3.5, TTLMs: 60000}, nil); err != nil {
		t.Fatalf("put: %v", err)
	}
	var get schemav1.KVGetReply
	if err := c.Call("get", &schemav1.KVKey{Key: "rates/web/h1"}, &get); err != nil {
		t.Fatalf("get: %v", err)
	}
	if !get.Found || get.Value != 3.5 {
		t.Errorf("get = %+v, want {3.5 true}", get)
	}
	var miss schemav1.KVGetReply
	if err := c.Call("get", &schemav1.KVKey{Key: "absent"}, &miss); err != nil {
		t.Fatalf("get absent: %v", err)
	}
	if miss.Found {
		t.Errorf("absent key found: %+v", miss)
	}
	var s string
	if err := c.Call("echo", "ping", &s); err != nil || s != "ping" {
		t.Errorf("echo = %q, %v", s, err)
	}

	// A JSON payload rides whichever envelope was negotiated untouched and
	// reaches Payload.Decode as JSON — grantd's production path on binary
	// connections.
	var field string
	if err := c.Call("jsonfield", map[string]string{"field": "intact"}, &field); err != nil || field != "intact" {
		t.Errorf("jsonfield = %q, %v", field, err)
	}

	err := c.Call("fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Message != "deliberate failure" {
		t.Errorf("fail err = %v, want RemoteError(deliberate failure)", err)
	}
	err = c.Call("shed", nil, nil)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("shed err = %v, want OverloadedError", err)
	}
	if oe.RetryAfter != 250*time.Millisecond || !strings.Contains(oe.Message, "queue full") {
		t.Errorf("shed = %+v", oe)
	}
	if !IsTransient(err) {
		t.Error("overload shed classified permanent")
	}

	// Trace context crosses the wire in both codecs.
	root := trace.Default().StartRoot("compat-op")
	c.SetSpan(root.Context())
	var tid string
	if err := c.Call("traceid", nil, &tid); err != nil {
		t.Fatalf("traceid: %v", err)
	}
	if tid != root.Context().TraceID() {
		t.Errorf("server saw trace %q, want %q", tid, root.Context().TraceID())
	}
	c.SetSpan(trace.Context{})
	root.Finish()

	// Connection still healthy after the error round trips.
	if err := c.Call("put", &schemav1.KVPut{Key: "rates/web/h2", Value: 1, TTLMs: 1000}, nil); err != nil {
		t.Errorf("post-error put: %v", err)
	}
}

// The compatibility matrix (`make wirecompat`): every pairing of codec
// offer and server capability serves identical request/response semantics.
func TestWireCompatMatrix(t *testing.T) {
	cases := []struct {
		name       string
		server     ServerOptions
		codec      Codec
		negotiated Codec
	}{
		{"binary-client/binary-server", ServerOptions{}, CodecBinary, CodecBinary},
		{"binary-client/json-server", ServerOptions{DisableBinary: true}, CodecBinary, CodecJSON},
		{"json-client/binary-server", ServerOptions{}, CodecJSON, CodecJSON},
		{"json-client/json-server", ServerOptions{DisableBinary: true}, CodecJSON, CodecJSON},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startPayloadServer(t, tc.server)
			c, err := DialOpts(addr, ClientOptions{Codec: tc.codec})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.NegotiatedCodec(); got != tc.negotiated {
				t.Fatalf("negotiated codec = %v, want %v", got, tc.negotiated)
			}
			exerciseClient(t, c)
		})
	}
}

// A frame without Trace — and without ID — is what pre-tracing peers send;
// both must keep working against a payload server.
func TestOldFrameWithoutTraceOrID(t *testing.T) {
	_, addr := startPayloadServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, _ := json.Marshal("bare")
	// Hand-built request with only method+payload: exactly the frame shape
	// of the first release.
	if err := WriteMessage(conn, map[string]interface{}{"method": "echo", "payload": json.RawMessage(payload)}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadMessage(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || string(resp.Payload) != `"bare"` {
		t.Errorf("bare frame response = %+v", resp)
	}
}

// negotiateRaw performs the client side of codec negotiation on a raw
// connection, failing the test if the server declines.
func negotiateRaw(t *testing.T, conn net.Conn) {
	t.Helper()
	hello, _ := json.Marshal(schemav1.Hello{Codec: schemav1.CodecBinary, Version: schemav1.Version})
	if err := WriteMessage(conn, &Request{Method: NegotiateMethod, ID: "t-hello", Payload: hello}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadMessage(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("negotiation declined: %s", resp.Error)
	}
}

// readBinaryResponse reads one frame and decodes it as a binary response.
func readBinaryResponse(t *testing.T, br *bufio.Reader) binResponse {
	t.Helper()
	body, _, err := readFrameInto(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeBinResponse(body)
	if err != nil {
		t.Fatalf("decode response: %v (frame %x)", err, body)
	}
	return resp
}

// Regression (stacked-codec hazard): a client that negotiates binary and
// then sends a JSON frame mid-connection. Both codecs share the outer
// framing, so the server must answer with an error response and keep the
// connection serving — not desync or hang up.
func TestBinaryServerRejectsJSONFrameMidConnection(t *testing.T) {
	_, addr := startPayloadServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	negotiateRaw(t, conn)

	// JSON frame on the now-binary connection, with an ID to echo.
	payload, _ := json.Marshal("sneaky")
	if err := WriteMessage(conn, &Request{Method: "echo", ID: "json-после", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	resp := readBinaryResponse(t, br)
	if !strings.Contains(string(resp.errMsg), "JSON frame on binary-negotiated connection") {
		t.Fatalf("error = %q, want JSON-frame rejection", resp.errMsg)
	}
	if string(resp.id) != "json-после" {
		t.Errorf("echoed id = %q, want the JSON request's id", resp.id)
	}

	// The connection must still serve a well-formed binary request: framing
	// never desynced.
	w := []byte{0, 0, 0, 0}
	w = appendBinRequestHeader(w, reqFlagBinaryPayload|reqFlagAcceptBinary, "put", []byte("bin-1"), "")
	w = (&schemav1.KVPut{Key: "k", Value: 7, TTLMs: 1000}).AppendBinary(w)
	binary.BigEndian.PutUint32(w[:4], uint32(len(w)-4))
	if _, err := conn.Write(w); err != nil {
		t.Fatal(err)
	}
	resp = readBinaryResponse(t, br)
	if len(resp.errMsg) != 0 || string(resp.id) != "bin-1" {
		t.Errorf("post-rejection binary call: id=%q err=%q", resp.id, resp.errMsg)
	}
}

// A garbage binary envelope (complete frame, malformed body) gets an error
// response and the connection keeps serving; an oversized frame gets an
// error response and then the connection closes (its framing cannot be
// trusted).
func TestBinaryServerRejectsTornAndOversizedFrames(t *testing.T) {
	_, addr := startPayloadServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	negotiateRaw(t, conn)

	// Well-framed garbage: right kind byte, torn-off fields.
	garbage := []byte{binKindRequest, 0x00, 0xFF} // method length promises 255 bytes that are not there
	frame := make([]byte, 4+len(garbage))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(garbage)))
	copy(frame[4:], garbage)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	resp := readBinaryResponse(t, br)
	if !strings.Contains(string(resp.errMsg), "bad request") {
		t.Fatalf("garbage envelope error = %q", resp.errMsg)
	}

	// Still serving.
	w := []byte{0, 0, 0, 0}
	w = appendBinRequestHeader(w, 0, "traceid", []byte("ok-1"), "")
	binary.BigEndian.PutUint32(w[:4], uint32(len(w)-4))
	if _, err := conn.Write(w); err != nil {
		t.Fatal(err)
	}
	if resp := readBinaryResponse(t, br); len(resp.errMsg) != 0 {
		t.Fatalf("post-garbage call failed: %q", resp.errMsg)
	}

	// Oversized: error response, then close.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxMessageSize+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp = readBinaryResponse(t, br)
	if !strings.Contains(string(resp.errMsg), "size limit") {
		t.Fatalf("oversized error = %q", resp.errMsg)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection still open after oversized binary frame")
	}
}

// Offering binary to a server that answers every negotiation with an error
// (a stand-in for pre-negotiation servers, which answer "unknown method")
// falls back to JSON without surfacing any error to the caller.
func TestNegotiationFallbackToJSON(t *testing.T) {
	// DisableBinary makes the server decline _negotiate with an error
	// response — the same shape an old server produces for an unknown
	// method — so the client must fall back to JSON silently.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	legacy := serveJSON(l, ServerOptions{DisableBinary: true}, func(method string, payload json.RawMessage) (interface{}, error) {
		return nil, fmt.Errorf("unknown method %q", method)
	})
	defer legacy.Close()

	c, err := DialOpts(l.Addr().String(), ClientOptions{Codec: CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.NegotiatedCodec(); got != CodecJSON {
		t.Errorf("negotiated = %v, want json fallback", got)
	}
	var s string
	if err := c.Call("any", "x", &s); err == nil {
		t.Error("legacy handler should error on unknown methods")
	}
}

// Re-dials re-negotiate: after the connection breaks, the next call on a
// binary client comes back up in binary.
func TestRenegotiateAfterReconnect(t *testing.T) {
	srv, addr := startPayloadServer(t, ServerOptions{})
	c, err := DialOpts(addr, ClientOptions{Codec: CodecBinary, MinBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("put", &schemav1.KVPut{Key: "a", Value: 1}, nil); err != nil {
		t.Fatal(err)
	}
	// Break every live server-side connection; the client's next call fails
	// transiently, the one after re-dials and re-negotiates.
	srv.mu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Call("put", &schemav1.KVPut{Key: "b", Value: 2}, nil)
		if err == nil {
			break
		}
		if !IsTransient(err) {
			t.Fatalf("permanent error during reconnect: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.NegotiatedCodec(); got != CodecBinary {
		t.Errorf("post-reconnect codec = %v, want binary", got)
	}
}

// Cross-codec golden: the same semantic call must produce identical decoded
// results through both codecs, and the binary envelope encoding itself is
// pinned byte for byte.
func TestCrossCodecGolden(t *testing.T) {
	type result struct {
		get     schemav1.KVGetReply
		echo    string
		failMsg string
		shedRA  time.Duration
	}
	run := func(codec Codec) result {
		_, addr := startPayloadServer(t, ServerOptions{})
		c, err := DialOpts(addr, ClientOptions{Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var r result
		if err := c.Call("put", &schemav1.KVPut{Key: "golden", Value: 12.25, TTLMs: 9000}, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Call("get", &schemav1.KVKey{Key: "golden"}, &r.get); err != nil {
			t.Fatal(err)
		}
		if err := c.Call("echo", "同じ", &r.echo); err != nil {
			t.Fatal(err)
		}
		var re *RemoteError
		if err := c.Call("fail", nil, nil); errors.As(err, &re) {
			r.failMsg = re.Message
		}
		var oe *OverloadedError
		if err := c.Call("shed", nil, nil); errors.As(err, &oe) {
			r.shedRA = oe.RetryAfter
		}
		return r
	}
	jr := run(CodecJSON)
	br := run(CodecBinary)
	if jr != br {
		t.Errorf("codec semantics diverge:\njson   = %+v\nbinary = %+v", jr, br)
	}

	// Pinned envelope bytes: a change here is a wire format break.
	w := appendBinRequestHeader(nil, reqFlagBinaryPayload|reqFlagAcceptBinary, "put", []byte("id-1"), "")
	want := []byte{binKindRequest, 0x03, 3, 'p', 'u', 't', 4, 'i', 'd', '-', '1', 0}
	if !bytes.Equal(w, want) {
		t.Errorf("request header = %x, want %x", w, want)
	}
	r := appendBinResponseHeader(nil, respFlagRetryable, []byte("id-1"), "busy", 250)
	wantR := []byte{binKindResponse, 0x02, 4, 'i', 'd', '-', '1', 4, 'b', 'u', 's', 'y', 250, 1}
	if !bytes.Equal(r, wantR) {
		t.Errorf("response header = %x, want %x", r, wantR)
	}
}

// The binary envelope round-trips through its own encode/decode pair.
func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	w := appendBinRequestHeader(nil, reqFlagBinaryPayload, "method", []byte("id"), "00-abc-def-01")
	w = append(w, 1, 2, 3)
	req, err := decodeBinRequest(w)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.method) != "method" || string(req.id) != "id" || string(req.trace) != "00-abc-def-01" ||
		req.flags != reqFlagBinaryPayload || !bytes.Equal(req.payload, []byte{1, 2, 3}) {
		t.Errorf("request round trip = %+v", req)
	}
	r := appendBinResponseHeader(nil, respFlagRetryable, []byte("id"), "err", 1500)
	r = append(r, 9)
	resp, err := decodeBinResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.id) != "id" || string(resp.errMsg) != "err" || resp.retryAfterMS != 1500 ||
		resp.flags != respFlagRetryable || !bytes.Equal(resp.payload, []byte{9}) {
		t.Errorf("response round trip = %+v", resp)
	}
	// Negative retry-after hints clamp to zero rather than wrapping.
	neg := appendBinResponseHeader(nil, 0, nil, "e", -5)
	if resp, err := decodeBinResponse(neg); err != nil || resp.retryAfterMS != 0 {
		t.Errorf("negative retry-after: %+v, %v", resp, err)
	}
}

func TestDecodeBinRejectsWrongKind(t *testing.T) {
	if _, err := decodeBinRequest([]byte{binKindResponse, 0}); !errors.Is(err, ErrBadBinaryFrame) {
		t.Errorf("request with response kind: %v", err)
	}
	if _, err := decodeBinResponse([]byte{binKindRequest, 0}); !errors.Is(err, ErrBadBinaryFrame) {
		t.Errorf("response with request kind: %v", err)
	}
	if _, err := decodeBinRequest(nil); !errors.Is(err, ErrBadBinaryFrame) {
		t.Errorf("empty request: %v", err)
	}
}

// FuzzBinaryFrameDecode pins the no-panic guarantee of both envelope
// decoders plus the readFrameInto framing path (`make fuzz-smoke`).
func FuzzBinaryFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{binKindRequest, 0x00})
	f.Add(appendBinRequestHeader(nil, 0x03, "put", []byte("id-1"), "00-trace"))
	f.Add(appendBinResponseHeader(nil, 0x02, []byte("id-1"), "busy", 250))
	f.Add([]byte{binKindRequest, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, raw []byte) {
		decodeBinRequest(raw)
		decodeBinResponse(raw)
		// Frame the raw bytes and run them through the buffered read path.
		frame := make([]byte, 4+len(raw))
		binary.BigEndian.PutUint32(frame[:4], uint32(len(raw)))
		copy(frame[4:], raw)
		body, _, err := readFrameInto(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err == nil && !bytes.Equal(body, raw) {
			t.Fatalf("readFrameInto = %x, want %x", body, raw)
		}
	})
}

// --- small coverage pins for the error and helper surfaces -----------------

func TestCodecParseAndString(t *testing.T) {
	if CodecJSON.String() != "json" || CodecBinary.String() != "binary" {
		t.Error("codec strings")
	}
}

func TestOverloadedUnwrapAndErrors(t *testing.T) {
	base := errors.New("base")
	ov := &Overloaded{Err: base, RetryAfter: time.Second}
	if !errors.Is(ov, base) || ov.Error() != "base" {
		t.Errorf("Overloaded wrap: Is=%v Error=%q", errors.Is(ov, base), ov.Error())
	}
	oe := &OverloadedError{Method: "m", Message: "busy", RetryAfter: time.Second}
	if !strings.Contains(oe.Error(), "overloaded from m") {
		t.Errorf("OverloadedError = %q", oe.Error())
	}
	oe.RequestID = "rid-1"
	if !strings.Contains(oe.Error(), "[rid-1]") {
		t.Errorf("OverloadedError with id = %q", oe.Error())
	}
	re := &RemoteError{Method: "m", Message: "nope"}
	if !strings.Contains(re.Error(), "remote error from m") {
		t.Errorf("RemoteError = %q", re.Error())
	}
	re.RequestID = "rid-2"
	if !strings.Contains(re.Error(), "[rid-2]") {
		t.Errorf("RemoteError with id = %q", re.Error())
	}
	te := &TransientError{Err: base, RequestID: "rid-3"}
	if !strings.Contains(te.Error(), "[rid-3]") {
		t.Errorf("TransientError with id = %q", te.Error())
	}
}

func TestPayloadDecodeErrors(t *testing.T) {
	p := BinaryPayload((&schemav1.KVKey{Key: "x"}).AppendBinary(nil))
	if !p.binary || p.Empty() {
		t.Error("BinaryPayload flags")
	}
	var s string
	if err := p.Decode(&s); err == nil || !strings.Contains(err.Error(), "no binary codec") {
		t.Errorf("binary payload into plain type: %v", err)
	}
	var k schemav1.KVKey
	if err := p.Decode(&k); err != nil || k.Key != "x" {
		t.Errorf("binary decode = %+v, %v", k, err)
	}
	jp := JSONPayload([]byte(`{"key":"y"}`))
	var k2 schemav1.KVKey
	if err := jp.Decode(&k2); err != nil || k2.Key != "y" {
		t.Errorf("json decode = %+v, %v", k2, err)
	}
	if err := JSONPayload([]byte("{")).Decode(&k2); err == nil {
		t.Error("malformed JSON payload accepted")
	}
	if !bytes.Equal(jp.Bytes(), []byte(`{"key":"y"}`)) {
		t.Error("Payload.Bytes")
	}
}

func TestAppendRequestID(t *testing.T) {
	if got := string(appendRequestID(nil, "", "base", 7)); got != "base-7" {
		t.Errorf("untraced id = %q", got)
	}
	if got := string(appendRequestID(nil, "tr", "base", 7)); got != "tr.base-7" {
		t.Errorf("traced id = %q", got)
	}
}

// BinaryPayload wraps schema-binary bytes as a Payload.
func BinaryPayload(b []byte) Payload { return Payload{data: b, binary: true} }

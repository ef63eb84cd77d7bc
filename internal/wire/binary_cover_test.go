package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"entitlement/internal/obs/trace"
	schemav1 "entitlement/schema/v1"
)

// Every proper prefix of a valid envelope must decode to an error — the
// torn-frame guarantee at the envelope layer.
func TestDecodeTruncatedEnvelopes(t *testing.T) {
	req := appendBinRequestHeader(nil, 0, "m", []byte("id"), "tr")
	for i := 0; i < len(req); i++ {
		if _, err := decodeBinRequest(req[:i]); err == nil {
			t.Errorf("request prefix %d/%d decoded", i, len(req))
		}
	}
	resp := appendBinResponseHeader(nil, 0, []byte("id"), "err", 5)
	for i := 0; i < len(resp); i++ {
		if _, err := decodeBinResponse(resp[:i]); err == nil {
			t.Errorf("response prefix %d/%d decoded", i, len(resp))
		}
	}
}

func TestReadFrameIntoGrowAndShortBody(t *testing.T) {
	// A body larger than the initial scratch grows the buffer once and is
	// read whole.
	big := bytes.Repeat([]byte{0xAB}, 600)
	frame := make([]byte, 4+len(big))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(big)))
	copy(frame[4:], big)
	body, kept, err := readFrameInto(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil || !bytes.Equal(body, big) {
		t.Fatalf("big frame: %v (len %d)", err, len(body))
	}
	// The kept buffer is reused for a second, smaller frame.
	frame2 := []byte{0, 0, 0, 2, 1, 2}
	body, _, err = readFrameInto(bufio.NewReader(bytes.NewReader(frame2)), kept)
	if err != nil || !bytes.Equal(body, []byte{1, 2}) {
		t.Fatalf("reused frame: %v %x", err, body)
	}
	// A header promising more bytes than the stream holds is a read error.
	if _, _, err := readFrameInto(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 9, 1, 2})), nil); err == nil {
		t.Error("short body accepted")
	}
}

// failAfterWriter fails the nth Write call.
type failAfterWriter struct{ n int }

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.n--
	if w.n < 0 {
		return 0, errors.New("sink failed")
	}
	return len(p), nil
}

func TestWriteMessageErrors(t *testing.T) {
	if err := WriteMessage(io.Discard, func() {}); err == nil || !strings.Contains(err.Error(), "marshal") {
		t.Errorf("unmarshalable value: %v", err)
	}
	if err := WriteMessage(io.Discard, strings.Repeat("x", MaxMessageSize)); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("oversized value: %v", err)
	}
	if err := WriteMessage(&failAfterWriter{n: 0}, "ok"); err == nil {
		t.Error("header write failure ignored")
	}
	if err := WriteMessage(&failAfterWriter{n: 1}, "ok"); err == nil {
		t.Error("body write failure ignored")
	}
}

// The server declines negotiation for a garbled payload or an unknown
// codec/version, with an error response on the same JSON connection.
func TestServerNegotiateDeclines(t *testing.T) {
	_, addr := startPayloadServer(t, ServerOptions{})
	for _, tc := range []struct {
		name    string
		payload string
		wantErr string
	}{
		{"garbled", `{"version":"not-an-int"}`, "bad negotiation payload"},
		{"wrong-version", `{"codec":"binary","version":99}`, "unsupported codec"},
		{"wrong-codec", `{"codec":"protobuf","version":1}`, "unsupported codec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := WriteMessage(conn, &Request{Method: NegotiateMethod, ID: "n1", Payload: json.RawMessage(tc.payload)}); err != nil {
				t.Fatal(err)
			}
			var resp Response
			if err := ReadMessage(conn, &resp); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(resp.Error, tc.wantErr) {
				t.Errorf("error = %q, want %q", resp.Error, tc.wantErr)
			}
			// Still JSON-serving after the decline. (Fresh Response: omitted
			// fields would otherwise keep their previous values across
			// Unmarshal.)
			payload, _ := json.Marshal("still-here")
			if err := WriteMessage(conn, &Request{Method: "echo", ID: "n2", Payload: payload}); err != nil {
				t.Fatal(err)
			}
			var resp2 Response
			if err := ReadMessage(conn, &resp2); err != nil || resp2.Error != "" {
				t.Errorf("post-decline echo: %+v, %v", resp2, err)
			}
		})
	}
}

// The serve loop honors ReadIdleTimeout, logs through the server Logger,
// and stamps the Service name onto spans, in both codecs; the client side
// logs too.
func TestServeLoopsWithLoggerServiceAndIdleTimeout(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			var serverLog, clientLog syncBuffer
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServerPayload(l, func(tc trace.Context, method string, p Payload) (interface{}, error) {
				switch method {
				case "ok":
					return "fine", nil
				case "badresult":
					return func() {}, nil // json.Marshal will fail
				default:
					return nil, fmt.Errorf("boom")
				}
			}, ServerOptions{
				ReadIdleTimeout: 2 * time.Second,
				Logger:          debugLogger(&serverLog),
				Service:         "covertest",
			})
			defer srv.Close()
			c, err := DialOpts(l.Addr().String(), ClientOptions{Codec: codec, Logger: debugLogger(&clientLog)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			root := trace.Default().StartRoot("cover-op")
			c.SetSpan(root.Context())
			defer root.Finish()
			var s string
			if err := c.Call("ok", nil, &s); err != nil || s != "fine" {
				t.Fatalf("ok = %q, %v", s, err)
			}
			var re *RemoteError
			if err := c.Call("fail", nil, nil); !errors.As(err, &re) {
				t.Fatalf("fail = %v", err)
			}
			// A result the codec cannot marshal becomes a remote error, not a
			// dropped connection.
			if err := c.Call("badresult", nil, nil); !errors.As(err, &re) {
				t.Fatalf("badresult = %v", err)
			}
			if err := c.Call("ok", nil, &s); err != nil {
				t.Fatalf("connection lost after marshal failure: %v", err)
			}
			for _, log := range []*syncBuffer{&serverLog, &clientLog} {
				if !strings.Contains(log.String(), "boom") {
					t.Error("error call not logged")
				}
			}
		})
	}
}

// A binary frame that starts with '{' but is not parseable JSON still gets
// the JSON-frame rejection, without an echoed ID.
func TestBinaryServerRejectsUnparseableJSONFrame(t *testing.T) {
	_, addr := startPayloadServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	negotiateRaw(t, conn)
	garbage := []byte(`{"method": truncated`)
	frame := make([]byte, 4+len(garbage))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(garbage)))
	copy(frame[4:], garbage)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	resp := readBinaryResponse(t, br)
	if !strings.Contains(string(resp.errMsg), "JSON frame") || len(resp.id) != 0 {
		t.Errorf("unparseable JSON frame: id=%q err=%q", resp.id, resp.errMsg)
	}
}

// scriptedBinaryServer accepts one connection, performs the server side of
// negotiation honestly, then hands each subsequent binary request to
// respond, which returns the raw response frame body to send.
func scriptedBinaryServer(t *testing.T, respond func(req binRequest) []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var nreq Request
		if err := ReadMessage(br, &nreq); err != nil || nreq.Method != NegotiateMethod {
			return
		}
		reply, _ := json.Marshal(schemav1.HelloReply{Codec: schemav1.CodecBinary, Version: schemav1.Version})
		if err := WriteMessage(conn, &Response{ID: nreq.ID, Payload: reply}); err != nil {
			return
		}
		for {
			body, _, err := readFrameInto(br, nil)
			if err != nil {
				return
			}
			req, err := decodeBinRequest(body)
			if err != nil {
				return
			}
			out := respond(req)
			frame := make([]byte, 4+len(out))
			binary.BigEndian.PutUint32(frame[:4], uint32(len(out)))
			copy(frame[4:], out)
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}

// A misbehaving binary server — garbage frames, wrong IDs, unsolicited
// binary payloads — produces transient errors and a connection reset, never
// a desync or a panic.
func TestCallBinaryServerMisbehaves(t *testing.T) {
	cases := []struct {
		name    string
		respond func(req binRequest) []byte
		reply   interface{}
		wantErr string
	}{
		{
			name:    "garbage-response",
			respond: func(req binRequest) []byte { return []byte{0x07, 0x00} },
			wantErr: "malformed binary frame",
		},
		{
			name: "wrong-id-length",
			respond: func(req binRequest) []byte {
				return appendBinResponseHeader(nil, 0, []byte("totally-different-id"), "", 0)
			},
			wantErr: "does not match",
		},
		{
			name: "wrong-id-content",
			respond: func(req binRequest) []byte {
				id := bytes.Repeat([]byte{'z'}, len(req.id))
				return appendBinResponseHeader(nil, 0, id, "", 0)
			},
			wantErr: "does not match",
		},
		{
			name: "unsolicited-binary-payload",
			respond: func(req binRequest) []byte {
				out := appendBinResponseHeader(nil, respFlagBinaryPayload, req.id, "", 0)
				return append(out, 0x01)
			},
			reply:   new(string), // not a WireUnmarshaler
			wantErr: "unsolicited binary payload",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedBinaryServer(t, tc.respond)
			c, err := DialOpts(addr, ClientOptions{Codec: CodecBinary})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Call("m", nil, tc.reply)
			if !IsTransient(err) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want transient containing %q", err, tc.wantErr)
			}
		})
	}
}

// Negotiation against servers that hang up, answer with the wrong ID, or
// send an unreadable reply fails the dial (transiently); a reply naming a
// different codec is a clean JSON fallback.
func TestClientNegotiateServerMisbehaves(t *testing.T) {
	script := func(t *testing.T, respond func(conn net.Conn, req Request)) string {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var req Request
			if err := ReadMessage(bufio.NewReader(conn), &req); err != nil {
				return
			}
			respond(conn, req)
			time.Sleep(time.Second) // keep the conn open past the client's read
		}()
		return l.Addr().String()
	}

	t.Run("hangs-up", func(t *testing.T) {
		addr := script(t, func(conn net.Conn, req Request) { conn.Close() })
		if _, err := DialOpts(addr, ClientOptions{Codec: CodecBinary}); err == nil || !strings.Contains(err.Error(), "codec negotiation") {
			t.Errorf("dial = %v", err)
		}
	})
	t.Run("wrong-id", func(t *testing.T) {
		addr := script(t, func(conn net.Conn, req Request) {
			WriteMessage(conn, &Response{ID: "not-the-hello-id"})
		})
		if _, err := DialOpts(addr, ClientOptions{Codec: CodecBinary}); err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Errorf("dial = %v", err)
		}
	})
	t.Run("garbled-reply", func(t *testing.T) {
		addr := script(t, func(conn net.Conn, req Request) {
			// Valid JSON, but not a HelloReply shape.
			WriteMessage(conn, &Response{ID: req.ID, Payload: json.RawMessage(`"not-a-reply"`)})
		})
		if _, err := DialOpts(addr, ClientOptions{Codec: CodecBinary}); err == nil || !strings.Contains(err.Error(), "negotiation reply") {
			t.Errorf("dial = %v", err)
		}
	})
	t.Run("other-codec-reply", func(t *testing.T) {
		addr := script(t, func(conn net.Conn, req Request) {
			reply, _ := json.Marshal(schemav1.HelloReply{Codec: schemav1.CodecJSON, Version: schemav1.Version})
			WriteMessage(conn, &Response{ID: req.ID, Payload: reply})
		})
		c, err := DialOpts(addr, ClientOptions{Codec: CodecBinary})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := c.NegotiatedCodec(); got != CodecJSON {
			t.Errorf("negotiated = %v, want json fallback", got)
		}
	})
}

// Argument marshal failures and oversized requests error before touching
// the connection, on both codec paths.
func TestCallArgumentErrors(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			_, addr := startPayloadServer(t, ServerOptions{})
			c, err := DialOpts(addr, ClientOptions{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Call("echo", func() {}, nil); err == nil || !strings.Contains(err.Error(), "marshal args") {
				t.Errorf("unmarshalable args: %v", err)
			}
			err = c.Call("echo", strings.Repeat("x", MaxMessageSize), nil)
			if !errors.Is(err, ErrMessageTooLarge) {
				t.Errorf("oversized args: %v", err)
			}
			// The connection survives both local failures.
			var s string
			if err := c.Call("echo", "alive", &s); err != nil || s != "alive" {
				t.Errorf("post-failure echo: %q, %v", s, err)
			}
		})
	}
}

// A handler result too large for the frame limit drops the binary
// connection (the response cannot be framed); the client recovers on the
// next call via re-dial.
func TestBinaryResponseTooLargeDropsConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerPayload(l, func(tc trace.Context, method string, p Payload) (interface{}, error) {
		if method == "huge" {
			return strings.Repeat("x", MaxMessageSize), nil
		}
		return "ok", nil
	}, ServerOptions{})
	defer srv.Close()
	c, err := DialOpts(l.Addr().String(), ClientOptions{Codec: CodecBinary, MinBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("huge", nil, nil); !IsTransient(err) {
		t.Errorf("huge result: %v, want transient", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var s string
		if err := c.Call("small", nil, &s); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

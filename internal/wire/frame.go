// Package wire is the framing and RPC layer every run-time component speaks
// over TCP: length-prefixed frames, a request/response envelope in one of
// two negotiated codecs, a connection-per-client server loop, and a
// serialized client. The contract database, the distributed rate store and
// the granting service all build on it.
//
// There is one of each mechanism. A service implements one handler type
// (PayloadHandler) and is served by one constructor (NewServerPayload); a
// caller ties its calls to an operation with one hook (Client.SetSpan); and
// each side runs one per-request code path, in which the connection's codec
// decides only how the envelope is decoded and encoded.
//
// # Framing
//
// A frame is a 4-byte big-endian length followed by a body of at most
// MaxMessageSize bytes. The body is an envelope (Request or Response) in
// the connection's codec: a JSON object — what every peer has spoken since
// the first release, and still the default — or the compact positional
// encoding below, which exists because the kvstore publish path has to
// survive millions of publishes per second and JSON encode/decode of the
// envelope plus payload is the dominant CPU cost there.
//
// Because both codecs share the outer framing, a frame in the wrong codec
// never desyncs the stream: the whole body is consumed by length, the
// server answers with an error response, and the connection keeps serving
// (see serverConn.decodeRequest).
//
// # Negotiation
//
// The codec is negotiated once per connection, at dial time, with JSON as
// the universal fallback:
//
//	client                                server
//	  | JSON frame {method:"_negotiate",     |
//	  |   payload:{codec:"binary",version:1}}|
//	  |-------------------------------------->
//	  |   (new server) JSON {payload:{codec: |
//	  |     "binary",version:1}} — switch    |
//	  |<--------------------------------------  both sides now binary
//	  |   (old server) JSON {error:"unknown  |
//	  |     method ..."} — client stays JSON |
//	  |<--------------------------------------  connection stays JSON
//
// The offer is a regular JSON request, so a server that predates the binary
// codec answers it like any unknown method — with an error response — and
// the connection simply continues on JSON. New servers intercept the
// reserved "_negotiate" method before dispatch. Every re-dial re-negotiates,
// so a server downgrade mid-deployment degrades the codec, never the
// connection.
//
// # Binary envelope layout (schema v1)
//
//	byte 0    kind: 0x01 request, 0x02 response
//	byte 1    flags
//	request:  method(str) id(str) trace(str) payload(rest of frame)
//	response: id(str) error(str) retry_after_ms(uvarint) payload(rest)
//	str:      uvarint length + bytes
//
// Request flags: bit0 = payload is schema-binary (else JSON bytes), bit1 =
// client accepts a schema-binary response payload. Response flags: bit0 =
// payload is schema-binary, bit1 = retryable (overload shed). Payloads ride
// as raw bytes either way, so methods without a binary payload codec (the
// granting plane's contract-bearing messages) still benefit from the
// envelope being binary while their payloads stay JSON; Payload.Decode
// serves both, which is why one handler type is enough.
//
// # Failure behavior
//
// The client is built for an unreliable fleet: every call carries a
// deadline, a connection that fails mid-call is marked broken (so framing
// can never desync on the shared connection) and re-dialed lazily with
// capped exponential backoff plus jitter, and errors are classified
// transient vs. permanent so callers can decide whether retrying is worth
// anything. The server side guards against idle or byte-dribbling peers
// with an optional per-connection read idle timeout and answers protocol
// violations with an error response instead of a silent disconnect.
//
// # Correlation and tracing
//
// Every request carries a client-generated request ID which the server
// echoes back; both sides attach it to their slog spans (when a Logger is
// configured) and the client stamps it onto returned errors. Client.SetSpan
// attaches a trace context (internal/obs/trace) to the client: request IDs
// then start with the 32-hex trace ID, so one operation's RPC fan-out greps
// under one token across processes, every Call starts a wire.call child
// span and propagates its context in the envelope's optional trace field,
// and the server parents a wire.serve span under it — one span tree across
// processes. Requests without a trace field behave exactly as before; the
// field is JSON-omitted when empty, keeping the frame byte-compatible with
// old peers.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	schemav1 "entitlement/schema/v1"
)

// MaxMessageSize bounds a single frame; anything larger is a protocol error.
const MaxMessageSize = 16 << 20

// WriteMessage marshals v as JSON and writes one length-prefixed frame.
func WriteMessage(w io.Writer, v interface{}) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	if len(body) > MaxMessageSize {
		return ErrMessageTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readFrameInto reads one length-prefixed frame body into buf, growing it
// as needed, and returns the body view plus the (possibly regrown) buffer.
// The reuse is what makes the receive path allocation-free after the first
// frame. The frame header has been consumed even when the frame is
// oversized, so the stream is desynced after ErrMessageTooLarge; callers
// must drop the connection.
func readFrameInto(r io.Reader, buf []byte) (body, kept []byte, err error) {
	// The length header is read into buf rather than a local array: a stack
	// array sliced into io.ReadFull escapes through the io.Reader interface
	// and would cost one heap allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxMessageSize {
		return nil, buf, ErrMessageTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, buf, err
	}
	return body, buf, nil
}

// ReadMessage reads one frame and unmarshals it into v.
func ReadMessage(r io.Reader, v interface{}) error {
	body, _, err := readFrameInto(r, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	return nil
}

// Request is the RPC envelope sent by clients. The shape is a versioned
// schema contract — it lives in schema/v1 and is fingerprint-pinned by
// `make vet-schema`; this alias keeps the wire package's historical API.
type Request = schemav1.Request

// Response is the RPC envelope returned by servers (schema/v1 contract,
// aliased like Request).
type Response = schemav1.Response

// Codec selects the wire encoding a client offers at dial time.
type Codec int

const (
	// CodecJSON is the universal default: length-prefixed JSON frames,
	// spoken by every peer since the first release.
	CodecJSON Codec = iota
	// CodecBinary offers the binary codec at dial time and falls back to
	// JSON when the server declines (or predates negotiation).
	CodecBinary
)

// String names the codec.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// NegotiateMethod is the reserved method name for codec negotiation; wire
// servers intercept it before dispatch, so handlers never see it.
const NegotiateMethod = "_negotiate"

// Frame kinds and flags of the binary envelope (schema v1).
const (
	binKindRequest  = 0x01
	binKindResponse = 0x02

	reqFlagBinaryPayload = 1 << 0 // payload is schema-binary, not JSON bytes
	reqFlagAcceptBinary  = 1 << 1 // client can decode a schema-binary reply

	respFlagBinaryPayload = 1 << 0
	respFlagRetryable     = 1 << 1
)

// ErrBadBinaryFrame reports a frame body that is not a well-formed binary
// envelope. Framing stays intact (the body was length-delimited), so
// servers answer it with an error response instead of hanging up.
var ErrBadBinaryFrame = errors.New("wire: malformed binary frame")

// binRequest is a decoded binary request envelope. All byte-slice fields
// alias the frame buffer: valid until the next frame is read into it.
type binRequest struct {
	method  []byte
	id      []byte
	trace   []byte
	payload []byte
	flags   byte
}

// binResponse is a decoded response envelope, aliasing like binRequest. It
// is the binary codec's native form; the client fills it from a JSON
// Response too (see decodeResponse), so Call has one tail for both codecs.
type binResponse struct {
	id           []byte
	errMsg       []byte
	retryAfterMS uint64
	payload      []byte
	flags        byte
}

// readBytesField consumes one uvarint-length-prefixed field.
func readBytesField(src []byte) ([]byte, []byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || n > uint64(len(src)-w) {
		return nil, nil, ErrBadBinaryFrame
	}
	return src[w : w+int(n)], src[w+int(n):], nil
}

// appendBytesField appends a uvarint-length-prefixed field.
func appendBytesField(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendStringField is appendBytesField for strings, avoiding a conversion.
func appendStringField(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeBinRequest parses a binary request envelope. It never panics on
// arbitrary input (FuzzBinaryFrameDecode pins this).
func decodeBinRequest(body []byte) (r binRequest, err error) {
	if len(body) < 2 || body[0] != binKindRequest {
		return r, ErrBadBinaryFrame
	}
	r.flags = body[1]
	rest := body[2:]
	if r.method, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	if r.id, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	if r.trace, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	r.payload = rest
	return r, nil
}

// decodeBinResponse parses a binary response envelope; same guarantees as
// decodeBinRequest.
func decodeBinResponse(body []byte) (r binResponse, err error) {
	if len(body) < 2 || body[0] != binKindResponse {
		return r, ErrBadBinaryFrame
	}
	r.flags = body[1]
	rest := body[2:]
	if r.id, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	if r.errMsg, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	v, w := binary.Uvarint(rest)
	if w <= 0 {
		return r, ErrBadBinaryFrame
	}
	r.retryAfterMS = v
	r.payload = rest[w:]
	return r, nil
}

// appendBinRequestHeader appends the frame body up to (excluding) the
// payload; the caller appends payload bytes and then fixes up the length
// prefix. id arrives as bytes so the hot path never materializes it as a
// string.
func appendBinRequestHeader(dst []byte, flags byte, method string, id []byte, trace string) []byte {
	dst = append(dst, binKindRequest, flags)
	dst = appendStringField(dst, method)
	dst = appendBytesField(dst, id)
	return appendStringField(dst, trace)
}

// appendBinResponseHeader is the response-side mirror.
func appendBinResponseHeader(dst []byte, flags byte, id []byte, errMsg string, retryAfterMS int64) []byte {
	dst = append(dst, binKindResponse, flags)
	dst = appendBytesField(dst, id)
	dst = appendStringField(dst, errMsg)
	if retryAfterMS < 0 {
		retryAfterMS = 0
	}
	return binary.AppendUvarint(dst, uint64(retryAfterMS))
}

// Payload is one request's payload plus its encoding, handed to
// PayloadHandler. On a binary connection it aliases the connection's frame
// buffer whichever encoding it is in: it is valid only for the duration of
// the handler call, which is exactly the decode-and-act window every
// handler in this repo uses. A handler that must retain bytes copies them.
type Payload struct {
	data   []byte
	binary bool
}

// JSONPayload wraps raw JSON bytes as a Payload (for tests and adapters).
func JSONPayload(b []byte) Payload { return Payload{data: b} }

// Empty reports whether the request carried no payload.
func (p Payload) Empty() bool { return len(p.data) == 0 }

// Bytes exposes the raw payload (aliasing rules above apply).
func (p Payload) Bytes() []byte { return p.data }

// Decode unmarshals the payload into v using whichever codec it arrived
// in: schema-binary via schemav1.WireUnmarshaler, JSON via encoding/json.
// A binary payload for a type with no binary codec is a protocol error —
// the two sides disagree about the schema, and guessing would be worse.
func (p Payload) Decode(v interface{}) error {
	if p.binary {
		u, ok := v.(schemav1.WireUnmarshaler)
		if !ok {
			return fmt.Errorf("wire: binary payload for %T, which has no binary codec", v)
		}
		return u.DecodeBinary(p.data)
	}
	if err := json.Unmarshal(p.data, v); err != nil {
		return fmt.Errorf("wire: unmarshal payload: %w", err)
	}
	return nil
}

package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"entitlement/internal/obs/trace"
	schemav1 "entitlement/schema/v1"
)

// ClientOptions tune the client's failure behavior. The zero value picks
// production defaults (see each field); negative durations disable the
// corresponding mechanism.
type ClientOptions struct {
	// DialTimeout bounds each (re-)dial attempt. Default 5s; negative
	// means no limit.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline covering write and read of one
	// round trip (applied via SetDeadline on the connection). Default 10s;
	// negative means no deadline.
	CallTimeout time.Duration
	// MinBackoff and MaxBackoff bound the exponential re-dial backoff.
	// After a failed dial the client refuses further dial attempts until a
	// jittered delay in [backoff/2, backoff] has passed, doubling up to
	// MaxBackoff; calls during the gate fail fast with a TransientError
	// instead of hammering the dead peer. Defaults 50ms and 5s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Rand supplies backoff jitter. Default: seeded from the target
	// address, so a fleet of agents spreads its re-dials.
	Rand *rand.Rand
	// Now supplies the clock for backoff bookkeeping; defaults to
	// time.Now. Tests inject a fake.
	Now func() time.Time
	// Logger, if set, emits one span per Call (method, request_id, took;
	// Debug on success, Warn on failure). The request ID matches the span
	// the server logs for the same call.
	Logger *slog.Logger
	// Service labels this client's wire.call spans (e.g. "grantd"). Empty
	// leaves the span on the process-wide collector default.
	Service string
	// Codec is the wire encoding offered at dial time. CodecJSON (the zero
	// value) keeps the historical behavior. CodecBinary negotiates the
	// binary codec on every (re-)dial and falls back to JSON when the
	// server declines or predates negotiation — old servers keep working.
	Codec Codec
}

func (o ClientOptions) withDefaults(addr string) ClientOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.MinBackoff == 0 {
		o.MinBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Rand == nil {
		h := fnv.New64a()
		h.Write([]byte(addr))
		o.Rand = rand.New(rand.NewSource(int64(h.Sum64())))
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Client is a serialized RPC client over one connection. It is safe for
// concurrent use; calls are issued one at a time. A call that fails at the
// transport layer marks the connection broken — the next call re-dials
// (subject to backoff) rather than reusing a stream whose framing may be
// desynced.
type Client struct {
	callMu sync.Mutex // serializes Calls

	mu         sync.Mutex // guards connection state below
	conn       net.Conn
	br         *bufio.Reader
	connBinary bool // current connection negotiated the binary codec
	addr       string
	opts       ClientOptions
	backoff    time.Duration
	nextDialAt time.Time
	closed     bool

	// Scratch buffers for the call path, guarded by callMu (one call at a
	// time): the request frame is built in wbuf, the response read into
	// rbuf, the request ID rendered into idbuf. Reuse across calls is what
	// makes the binary publish path allocation-free.
	wbuf, rbuf, idbuf []byte
	// everConnected distinguishes first connects from reconnects in the
	// dial metrics: a successful dial after it is set counts as a repair
	// of a broken connection.
	everConnected bool

	// Request-ID and trace state: idBase identifies this client instance,
	// reqSeq numbers its calls, and traceState is the optional caller trace
	// set via SetSpan. It uses the same lock-free atomics as the request
	// counter — an immutable snapshot swapped wholesale — so concurrent
	// Calls never see a torn prefix/context pair and never contend with the
	// connection mutex for it.
	idBase     string
	reqSeq     atomic.Uint64
	traceState atomic.Pointer[clientTrace]
}

// clientTrace is one immutable trace snapshot: the span context propagated
// in the request frame plus its trace ID, rendered once as the request-ID
// prefix.
type clientTrace struct {
	prefix string
	ctx    trace.Context
}

// clientInstances distinguishes clients within one process; combined with
// a per-process salt it keeps request IDs unique across an agent fleet.
var clientInstances atomic.Uint64

var processSalt = func() uint32 {
	h := fnv.New32a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	h.Write(b[:])
	return h.Sum32()
}()

// newIDBase builds the per-client request-ID prefix.
func newIDBase(addr string) string {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return fmt.Sprintf("%08x", h.Sum32()^processSalt^uint32(clientInstances.Add(1)<<24))
}

// SetSpan ties every subsequent Call to ctx until cleared (zero/invalid ctx
// clears): request IDs gain the 32-hex trace ID prefix, each Call starts a
// wire.call child span under ctx, and the request frame carries the child's
// context so the server's wire.serve span joins the same tree.
func (c *Client) SetSpan(ctx trace.Context) {
	if !ctx.Valid() {
		c.traceState.Store(nil)
		return
	}
	c.traceState.Store(&clientTrace{prefix: ctx.TraceID(), ctx: ctx})
}

// appendRequestID renders "<prefix>.<base>-<seq>" (or "<base>-<seq>"
// untraced) into dst without allocating, so the hot path never builds the
// ID as a string.
func appendRequestID(dst []byte, prefix, base string, seq uint64) []byte {
	if prefix != "" {
		dst = append(dst, prefix...)
		dst = append(dst, '.')
	}
	dst = append(dst, base...)
	dst = append(dst, '-')
	return strconv.AppendUint(dst, seq, 10)
}

// requestID is appendRequestID as a string, for spans, logs and errors. The
// stack scratch holds a 32-hex trace prefix, the base and any sequence
// number, so the string is the only allocation.
func (c *Client) requestID(prefix string, seq uint64) string {
	var scratch [80]byte
	return string(appendRequestID(scratch[:0], prefix, c.idBase, seq))
}

// DialOpts connects a client to addr with explicit options, failing if the
// first dial does.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	c := Connect(addr, opts)
	c.mu.Lock()
	err := c.dialLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Connect builds a client for addr without dialing: the connection is
// established lazily on the first Call (and re-established after failures).
// It never fails, which is what long-running agents want at startup — the
// servers may simply not be up yet.
func Connect(addr string, opts ClientOptions) *Client {
	return &Client{addr: addr, opts: opts.withDefaults(addr), idBase: newIDBase(addr)}
}

// dialLocked establishes the connection (and negotiates the codec when the
// client prefers binary); c.mu must be held.
func (c *Client) dialLocked() error {
	d := net.Dialer{}
	if c.opts.DialTimeout > 0 {
		d.Timeout = c.opts.DialTimeout
	}
	mClientDials.Inc()
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		mClientDialFails.Inc()
		c.bumpBackoffLocked()
		return &TransientError{Err: err}
	}
	br := bufio.NewReader(conn)
	binaryMode := false
	if c.opts.Codec == CodecBinary {
		binaryMode, err = c.negotiate(conn, br)
		if err != nil {
			// The server never answered the offer: treat it like a failed
			// dial so the backoff gate engages rather than half-using a
			// connection in an unknown codec state.
			conn.Close()
			mClientDialFails.Inc()
			c.bumpBackoffLocked()
			return &TransientError{Err: fmt.Errorf("codec negotiation: %w", err)}
		}
	}
	if c.everConnected {
		mClientReconnects.Inc()
	}
	c.everConnected = true
	c.conn = conn
	c.br = br
	c.connBinary = binaryMode
	c.backoff = 0
	c.nextDialAt = time.Time{}
	return nil
}

// negotiate offers the binary codec on a fresh connection with one JSON
// round trip. An error response from the server — an old server answering
// an unknown method, or a new one declining — is a clean JSON fallback;
// only transport failures are returned as errors.
func (c *Client) negotiate(conn net.Conn, br *bufio.Reader) (bool, error) {
	if c.opts.CallTimeout > 0 {
		conn.SetDeadline(c.opts.Now().Add(c.opts.CallTimeout))
		defer conn.SetDeadline(time.Time{})
	}
	hello, err := json.Marshal(schemav1.Hello{Codec: schemav1.CodecBinary, Version: schemav1.Version})
	if err != nil {
		return false, err
	}
	id := fmt.Sprintf("%s-hello", c.idBase)
	if err := WriteMessage(conn, &Request{Method: NegotiateMethod, ID: id, Payload: hello}); err != nil {
		return false, err
	}
	var resp Response
	if err := ReadMessage(br, &resp); err != nil {
		return false, err
	}
	if resp.ID != "" && resp.ID != id {
		return false, fmt.Errorf("negotiation response ID %q does not match %q", resp.ID, id)
	}
	if resp.Error != "" {
		// Declined (or unknown method on an old server): stay on JSON.
		mClientNegotiated.With("json").Inc()
		return false, nil
	}
	var reply schemav1.HelloReply
	if err := json.Unmarshal(resp.Payload, &reply); err != nil {
		return false, fmt.Errorf("negotiation reply: %w", err)
	}
	if reply.Codec != schemav1.CodecBinary || reply.Version != schemav1.Version {
		mClientNegotiated.With("json").Inc()
		return false, nil
	}
	mClientNegotiated.With("binary").Inc()
	return true, nil
}

// bumpBackoffLocked doubles the re-dial backoff (capped) and sets the next
// allowed dial time with jitter in [backoff/2, backoff].
func (c *Client) bumpBackoffLocked() {
	if c.backoff <= 0 {
		c.backoff = c.opts.MinBackoff
	} else {
		c.backoff *= 2
		if c.backoff > c.opts.MaxBackoff {
			c.backoff = c.opts.MaxBackoff
		}
	}
	wait := c.backoff
	if half := int64(c.backoff / 2); half > 0 {
		wait = c.backoff/2 + time.Duration(c.opts.Rand.Int63n(half+1))
	}
	c.nextDialAt = c.opts.Now().Add(wait)
}

// ensureConn returns a live connection (and whether it negotiated the
// binary codec), re-dialing when the backoff gate allows.
func (c *Client) ensureConn() (net.Conn, *bufio.Reader, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, false, ErrClientClosed
	}
	if c.conn != nil {
		return c.conn, c.br, c.connBinary, nil
	}
	if now := c.opts.Now(); now.Before(c.nextDialAt) {
		mClientBackoff.Inc()
		return nil, nil, false, &TransientError{
			Err: fmt.Errorf("reconnect to %s backed off for %s", c.addr, c.nextDialAt.Sub(now).Round(time.Millisecond)),
		}
	}
	if err := c.dialLocked(); err != nil {
		return nil, nil, false, err
	}
	return c.conn, c.br, c.connBinary, nil
}

// NegotiatedCodec reports the codec of the current connection: CodecBinary
// after a successful binary negotiation, CodecJSON otherwise (including
// when disconnected).
func (c *Client) NegotiatedCodec() Codec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil && c.connBinary {
		return CodecBinary
	}
	return CodecJSON
}

// fail marks conn broken so no later call can reuse a desynced stream.
func (c *Client) fail(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn, c.br = nil, nil
		c.connBinary = false
		mClientBroken.Inc()
	}
	c.mu.Unlock()
}

// Call issues one request and decodes the response payload into reply
// (which may be nil to discard it). Transport failures — including the
// per-call deadline firing — come back wrapped in TransientError; a
// RemoteError means the server processed the request and rejected it.
// Either way the error carries this call's request ID, matching the span
// the server logged.
func (c *Client) Call(method string, args interface{}, reply interface{}) (err error) {
	st := c.traceState.Load()
	seq := c.reqSeq.Add(1)
	prefix := ""
	if st != nil {
		prefix = st.prefix
	}
	// The ID string is materialized only off the hot path — spans, logs,
	// error stamping. The frame carries the same bytes rendered into a
	// reusable buffer, so a successful untraced call never builds it.
	id := ""
	if st != nil || c.opts.Logger != nil {
		id = c.requestID(prefix, seq)
	}
	// With a span context attached, each Call is a wire.call child span
	// whose context rides the request frame; errors and overload sheds flag
	// the span, forcing tail sampling to keep the whole trace.
	var sp trace.Span
	var frameTrace string
	if st != nil {
		sp = trace.Default().StartChild(st.ctx, "wire.call."+method)
		if c.opts.Service != "" {
			sp.SetService(c.opts.Service)
		}
		sp.Annotate(id)
		frameTrace = sp.Context().String()
	}
	mClientCalls.With(method).Inc()
	mClientInflight.Inc()
	var spanStart time.Time
	if c.opts.Logger != nil {
		spanStart = time.Now()
	}
	defer func() {
		mClientInflight.Dec()
		if err != nil {
			mClientErrors.With(classify(err)).Inc()
			if id == "" {
				id = c.requestID(prefix, seq)
			}
			// Stamp the ID onto the error for log correlation. Both error
			// types are freshly allocated per failure, so this mutation
			// cannot race another caller.
			var te *TransientError
			var re *RemoteError
			var oe *OverloadedError
			if errors.As(err, &te) {
				te.RequestID = id
			} else if errors.As(err, &re) {
				re.RequestID = id
			} else if errors.As(err, &oe) {
				oe.RequestID = id
				sp.Flag(trace.FlagShed)
			}
			sp.SetError(err)
		}
		sp.Finish()
		if l := c.opts.Logger; l != nil {
			attrs := []any{
				slog.String("method", method),
				slog.String("request_id", id),
				slog.Duration("took", time.Since(spanStart)),
			}
			if err != nil {
				l.Warn("wire.call", append(attrs, slog.Any("err", err))...)
			} else {
				l.Debug("wire.call", attrs...)
			}
		}
	}()
	c.callMu.Lock()
	defer c.callMu.Unlock()
	conn, br, isBinary, err := c.ensureConn()
	if err != nil {
		return err
	}
	// Latency is measured only for calls that reached the transport;
	// backoff fast-fails above would otherwise flood the histogram with
	// near-zero samples. Traced calls stamp their trace ID as the bucket's
	// exemplar, linking a latency outlier straight to its span tree.
	start := time.Now()
	defer func() {
		if tid := sp.TraceID(); tid != "" {
			mClientCallSec.With(method).ObserveSinceExemplar(start, tid)
		} else {
			mClientCallSec.With(method).ObserveSince(start)
		}
	}()
	idb := appendRequestID(c.idbuf[:0], prefix, c.idBase, seq)
	c.idbuf = idb[:0]
	return c.roundTrip(conn, br, isBinary, method, idb, frameTrace, args, reply)
}

// roundTrip is the one request/response exchange both codecs share: build
// the request frame in the reusable write buffer, send it, read the
// response into the reusable read buffer, and map it to Call's result. The
// connection's codec decides only how the two envelopes are encoded, so a
// publish round trip allocates nothing after warm-up. callMu is held.
func (c *Client) roundTrip(conn net.Conn, br *bufio.Reader, isBinary bool, method string, id []byte, frameTrace string, args, reply interface{}) error {
	w, err := appendRequest(append(c.wbuf[:0], 0, 0, 0, 0), isBinary, method, id, frameTrace, args, reply)
	c.wbuf = w[:0]
	if err != nil {
		return err
	}
	if len(w)-4 > MaxMessageSize {
		return ErrMessageTooLarge
	}
	binary.BigEndian.PutUint32(w[:4], uint32(len(w)-4))
	if c.opts.CallTimeout > 0 {
		conn.SetDeadline(c.opts.Now().Add(c.opts.CallTimeout))
	}
	if _, err := conn.Write(w); err != nil {
		c.fail(conn)
		return &TransientError{Err: err}
	}
	mClientBytesOut.Add(int64(len(w)))
	body, rbuf, err := readFrameInto(br, c.rbuf)
	c.rbuf = rbuf
	if err != nil {
		c.fail(conn)
		return &TransientError{Err: err}
	}
	mClientBytesIn.Add(int64(4 + len(body)))
	resp, err := decodeResponse(isBinary, body)
	if err != nil {
		// The body was length-delimited so framing is intact, but a server
		// answering in the wrong codec is not to be trusted.
		c.fail(conn)
		return &TransientError{Err: err}
	}
	if c.opts.CallTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	if len(resp.id) != 0 && !bytes.Equal(resp.id, id) {
		// The stream delivered someone else's response: framing has
		// desynced (or the server is broken). Drop the connection rather
		// than mis-attribute replies.
		c.fail(conn)
		return &TransientError{Err: fmt.Errorf("wire: response ID %q does not match request %q", resp.id, id)}
	}
	if len(resp.errMsg) != 0 {
		if resp.flags&respFlagRetryable != 0 {
			return &OverloadedError{
				Method: method, Message: string(resp.errMsg),
				RetryAfter: time.Duration(resp.retryAfterMS) * time.Millisecond,
			}
		}
		return &RemoteError{Method: method, Message: string(resp.errMsg)}
	}
	if reply == nil || len(resp.payload) == 0 {
		return nil
	}
	p := Payload{data: resp.payload, binary: resp.flags&respFlagBinaryPayload != 0}
	if _, ok := reply.(schemav1.WireUnmarshaler); p.binary && !ok {
		// Servers only binary-encode when the request offered
		// reqFlagAcceptBinary, so this is a server bug.
		c.fail(conn)
		return &TransientError{Err: fmt.Errorf("wire: unsolicited binary payload for %T", reply)}
	}
	return p.Decode(reply)
}

// appendRequest appends one request envelope to w in the connection's
// codec. On a binary connection the payload is schema-binary when args
// implements schemav1.AppendMarshaler, JSON bytes otherwise, and the accept
// flag tells the server whether reply can decode a schema-binary payload.
func appendRequest(w []byte, isBinary bool, method string, id []byte, frameTrace string, args, reply interface{}) ([]byte, error) {
	var payload []byte
	bm, binaryArgs := args.(schemav1.AppendMarshaler)
	binaryArgs = binaryArgs && isBinary
	if args != nil && !binaryArgs {
		var err error
		if payload, err = json.Marshal(args); err != nil {
			return w, fmt.Errorf("wire: marshal args: %w", err)
		}
	}
	if !isBinary {
		body, err := json.Marshal(&Request{Method: method, ID: string(id), Payload: payload, Trace: frameTrace})
		if err != nil {
			return w, fmt.Errorf("wire: marshal: %w", err)
		}
		return append(w, body...), nil
	}
	var flags byte
	if _, ok := reply.(schemav1.WireUnmarshaler); ok {
		flags |= reqFlagAcceptBinary
	}
	if binaryArgs {
		w = appendBinRequestHeader(w, flags|reqFlagBinaryPayload, method, id, frameTrace)
		return bm.AppendBinary(w), nil
	}
	w = appendBinRequestHeader(w, flags, method, id, frameTrace)
	return append(w, payload...), nil
}

// decodeResponse parses one response frame body in the connection's codec.
func decodeResponse(isBinary bool, body []byte) (binResponse, error) {
	if isBinary {
		return decodeBinResponse(body)
	}
	var jresp Response
	if err := json.Unmarshal(body, &jresp); err != nil {
		return binResponse{}, fmt.Errorf("wire: unmarshal: %w", err)
	}
	resp := binResponse{id: []byte(jresp.ID), errMsg: []byte(jresp.Error), payload: jresp.Payload}
	if jresp.Retryable {
		resp.flags = respFlagRetryable
	}
	if jresp.RetryAfterMS > 0 {
		resp.retryAfterMS = uint64(jresp.RetryAfterMS)
	}
	return resp, nil
}

// Close closes the underlying connection. It is safe to call concurrently
// with an in-flight Call, which then fails with a transport error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn, c.br = nil, nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

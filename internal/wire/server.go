package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"entitlement/internal/obs/trace"
	schemav1 "entitlement/schema/v1"
)

// PayloadHandler processes one request. tc is the span context of the
// request's wire.serve span (zero when the request carried no trace), so a
// handler can parent its own spans — queue wait, decision, journal write —
// under it instead of starting a fresh trace. The payload arrives with its
// encoding intact (Payload.Decode picks JSON or schema-binary), and the
// result is re-encoded in the connection's codec — schema-binary when it
// implements schemav1.AppendMarshaler and the client offered to accept it,
// JSON otherwise.
type PayloadHandler func(tc trace.Context, method string, p Payload) (interface{}, error)

// ServerOptions harden a server against misbehaving peers.
type ServerOptions struct {
	// ReadIdleTimeout closes a connection whose next complete request does
	// not arrive within this window. The deadline is absolute per request,
	// so a byte-dribbling client cannot hold a goroutine by trickling one
	// byte at a time. Zero means no timeout.
	ReadIdleTimeout time.Duration
	// Logger, if set, emits one span per handled request (method,
	// request_id, took; Debug on success, Warn on handler error), carrying
	// the client's request ID so the two sides' logs line up.
	Logger *slog.Logger
	// Service labels this server's wire.serve spans (e.g. "contractdb").
	// Empty leaves the span on the process-wide collector default.
	Service string
	// DisableBinary declines codec negotiation, pinning every connection to
	// JSON. Offering clients fall back transparently; the compat tests use
	// this to stand in for servers that predate the binary codec.
	DisableBinary bool
}

// Server accepts connections and dispatches requests to its handler.
type Server struct {
	listener net.Listener
	handler  PayloadHandler
	opts     ServerOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServerPayload starts serving on l with h. It returns immediately; use
// Close to stop.
func NewServerPayload(l net.Listener, h PayloadHandler, opts ServerOptions) *Server {
	s := &Server{listener: l, handler: h, opts: opts, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.listener.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	mServerConns.Inc()
	defer func() {
		mServerConns.Dec()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := &serverConn{s: s, conn: conn, br: bufio.NewReader(conn)}
	sc.serve()
}

// serverConn is one connection's serving state: which codec it negotiated
// plus the reusable scratch that lets a request be handled without
// allocating.
type serverConn struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader
	// binary is set once a "_negotiate" request upgraded the connection;
	// every connection starts on JSON.
	binary bool

	// Frames are read into rbuf and responses built in wbuf; methods interns
	// the method names of binary requests, so steady-state dispatch
	// allocates for neither the frame nor the name.
	rbuf, wbuf []byte
	methods    map[string]string
}

// maxInternedMethods caps the per-connection method-name cache; a peer
// inventing method names cannot grow it without bound.
const maxInternedMethods = 64

// request is one decoded request envelope, whichever codec it arrived in.
// On a binary connection id and payload alias the frame buffer.
type request struct {
	method       string
	id           []byte
	trace        string // traceparent; "" when the caller attached no span
	payload      Payload
	acceptBinary bool // the client can decode a schema-binary reply
}

// response is one response envelope before encoding.
type response struct {
	id           []byte
	errMsg       string
	retryable    bool
	retryAfterMS int64
	result       interface{} // marshaled as the payload; nil sends none
}

// serve is the connection's only loop: read a frame into the reusable
// buffer, decode the envelope in the connection's codec, handle it, answer
// in the same codec. Both codecs share the outer framing, so even a frame
// in the wrong codec is consumed whole — it is answered with an error
// response and the loop keeps serving instead of desyncing.
func (sc *serverConn) serve() {
	s := sc.s
	for {
		if s.opts.ReadIdleTimeout > 0 {
			sc.conn.SetReadDeadline(time.Now().Add(s.opts.ReadIdleTimeout))
		}
		body, rbuf, err := readFrameInto(sc.br, sc.rbuf)
		sc.rbuf = rbuf
		if errors.Is(err, ErrMessageTooLarge) {
			// Tell the peer what went wrong before hanging up; the frame
			// header promised more bytes than we will read, so the stream
			// cannot be resynced and the connection must die.
			mServerErrors.Inc()
			sc.respond(&response{errMsg: ErrMessageTooLarge.Error()})
			return
		}
		if err != nil {
			return
		}
		mServerBytesIn.Add(int64(4 + len(body)))
		req, err := sc.decodeRequest(body)
		if err != nil {
			// Framing is intact (the whole body was consumed), so answer
			// the error and keep serving.
			mServerErrors.Inc()
			if !sc.respond(&response{id: req.id, errMsg: err.Error()}) {
				return
			}
			continue
		}
		if !sc.binary && req.method == NegotiateMethod {
			resp, upgrade := sc.negotiate(&req)
			if !sc.respond(&resp) {
				return
			}
			if upgrade {
				sc.binary = true
				sc.methods = make(map[string]string)
			}
			continue
		}
		if !sc.handle(&req) {
			return
		}
	}
}

// decodeRequest parses one frame body in the connection's codec. On error
// the returned request carries whatever ID could be recovered, so the
// rejection can still be correlated by the sender.
func (sc *serverConn) decodeRequest(body []byte) (request, error) {
	if !sc.binary {
		var jreq Request
		if err := json.Unmarshal(body, &jreq); err != nil {
			return request{}, fmt.Errorf("wire: bad request: %v", err)
		}
		return request{method: jreq.Method, id: []byte(jreq.ID), trace: jreq.Trace, payload: JSONPayload(jreq.Payload)}, nil
	}
	breq, err := decodeBinRequest(body)
	if err != nil {
		if len(body) > 0 && body[0] == '{' {
			// A JSON frame after binary negotiation: a confused client or a
			// middlebox splicing streams. Echo the request ID when the body
			// parses.
			var req request
			var jreq Request
			if json.Unmarshal(body, &jreq) == nil {
				req.id = []byte(jreq.ID)
			}
			return req, errors.New("wire: received JSON frame on binary-negotiated connection")
		}
		return request{}, fmt.Errorf("wire: bad request: %v", err)
	}
	// Intern the method name: steady-state traffic repeats a handful of
	// methods, so after warm-up neither dispatch nor the metrics allocate
	// for the name.
	method, ok := sc.methods[string(breq.method)]
	if !ok {
		method = string(breq.method)
		if len(sc.methods) < maxInternedMethods {
			sc.methods[method] = method
		}
	}
	return request{
		method:       method,
		id:           breq.id,
		trace:        string(breq.trace),
		payload:      Payload{data: breq.payload, binary: breq.flags&reqFlagBinaryPayload != 0},
		acceptBinary: breq.flags&reqFlagAcceptBinary != 0,
	}, nil
}

// negotiate answers one "_negotiate" request, reporting whether the
// connection switches to the binary codec once the answer is written. A
// declined offer (disabled, unknown codec, version mismatch) is answered
// with an error response — exactly what an old server would say to an
// unknown method — and the connection stays on JSON.
func (sc *serverConn) negotiate(req *request) (response, bool) {
	mServerRequests.With(NegotiateMethod).Inc()
	resp := response{id: req.id}
	var hello schemav1.Hello
	if err := json.Unmarshal(req.payload.Bytes(), &hello); err != nil {
		resp.errMsg = fmt.Sprintf("wire: bad negotiation payload: %v", err)
	} else if sc.s.opts.DisableBinary {
		resp.errMsg = "wire: binary codec disabled on this server"
	} else if hello.Codec != schemav1.CodecBinary || hello.Version != schemav1.Version {
		resp.errMsg = fmt.Sprintf("wire: unsupported codec %q v%d", hello.Codec, hello.Version)
	} else {
		resp.result = schemav1.HelloReply{Codec: schemav1.CodecBinary, Version: schemav1.Version}
		mServerNegotiated.With("binary").Inc()
		return resp, true
	}
	mServerNegotiated.With("json").Inc()
	return resp, false
}

// handle is the one per-request body: span, in-flight gauge, handler call,
// overload mapping, error accounting and log span are the same whichever
// codec carried the request. It returns false when the connection must
// close.
func (sc *serverConn) handle(req *request) bool {
	s := sc.s
	mServerRequests.With(req.method).Inc()
	// A traced request grows a wire.serve span under the client's wire.call
	// span; the handler's own spans parent under ours via the context it is
	// handed.
	var sp trace.Span
	if req.trace != "" {
		if tc, ok := trace.Parse(req.trace); ok {
			sp = trace.Default().StartChild(tc, "wire.serve."+req.method)
			if s.opts.Service != "" {
				sp.SetService(s.opts.Service)
			}
			sp.Annotate(string(req.id))
		}
	}
	mServerInflight.Inc()
	start := time.Now()
	result, err := s.handler(sp.Context(), req.method, req.payload)
	took := time.Since(start)
	mServerInflight.Dec()
	resp := response{id: req.id, result: result} // echo the request ID for correlation
	if err != nil {
		resp = response{id: req.id, errMsg: err.Error()}
		var ov *Overloaded
		if errors.As(err, &ov) {
			resp.retryable = true
			resp.retryAfterMS = ov.RetryAfter.Milliseconds()
			sp.Flag(trace.FlagShed)
		}
	}
	frame, merr := sc.appendResponse(&resp, req.acceptBinary)
	if merr != nil {
		// A result the codec cannot marshal is the handler's failure, not
		// the connection's: answer it as an error.
		err = merr
		frame, _ = sc.appendResponse(&response{id: req.id, errMsg: merr.Error()}, false)
	}
	if err != nil {
		mServerErrors.Inc()
		sp.SetError(err)
	}
	if l := s.opts.Logger; l != nil {
		attrs := []any{
			slog.String("method", req.method),
			slog.String("request_id", string(req.id)),
			slog.Duration("took", took),
		}
		if err != nil {
			l.Warn("wire.serve", append(attrs, slog.Any("err", err))...)
		} else {
			l.Debug("wire.serve", attrs...)
		}
	}
	sp.Finish()
	return sc.write(frame)
}

// appendResponse builds resp's frame in the reusable write buffer, in the
// connection's codec: a 4-byte length placeholder (fixed up by write), then
// the envelope. On a binary connection the payload is schema-binary when
// the result and the client's accept flag agree on it, JSON bytes
// otherwise. The only possible error is the result failing to marshal.
func (sc *serverConn) appendResponse(resp *response, acceptBinary bool) ([]byte, error) {
	w := append(sc.wbuf[:0], 0, 0, 0, 0)
	var payload []byte
	am, binaryResult := resp.result.(schemav1.AppendMarshaler)
	binaryResult = binaryResult && acceptBinary // only binary connections carry the accept flag
	if resp.result != nil && !binaryResult {
		var err error
		if payload, err = json.Marshal(resp.result); err != nil {
			return w, err
		}
	}
	if !sc.binary {
		body, err := json.Marshal(&Response{
			ID: string(resp.id), Error: resp.errMsg, Payload: payload,
			Retryable: resp.retryable, RetryAfterMS: resp.retryAfterMS,
		})
		return append(w, body...), err
	}
	var flags byte
	if resp.retryable {
		flags |= respFlagRetryable
	}
	if binaryResult {
		w = appendBinResponseHeader(w, flags|respFlagBinaryPayload, resp.id, resp.errMsg, resp.retryAfterMS)
		return am.AppendBinary(w), nil
	}
	w = appendBinResponseHeader(w, flags, resp.id, resp.errMsg, resp.retryAfterMS)
	return append(w, payload...), nil
}

// write fixes up the length prefix of a frame built by appendResponse and
// sends it, returning false when the connection must close — which
// includes a response too large to frame.
func (sc *serverConn) write(frame []byte) bool {
	sc.wbuf = frame[:0]
	if len(frame)-4 > MaxMessageSize {
		return false
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	if _, err := sc.conn.Write(frame); err != nil {
		return false
	}
	mServerBytesOut.Add(int64(len(frame)))
	return true
}

// respond encodes and sends a response built outside handle — a rejection
// or the negotiation answer, neither of which can fail to marshal.
func (sc *serverConn) respond(resp *response) bool {
	frame, err := sc.appendResponse(resp, false)
	return err == nil && sc.write(frame)
}

// Close stops accepting and closes every live connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

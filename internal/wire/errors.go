package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// ErrMessageTooLarge is returned for frames exceeding MaxMessageSize.
var ErrMessageTooLarge = errors.New("wire: message exceeds size limit")

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("wire: client closed")

// TransientError wraps a failure worth retrying: connection loss, dial
// failures, deadline expiry, or the backoff gate rejecting a call while a
// re-dial is pending. Permanent failures — a RemoteError (the server is up
// and answered), marshaling problems, oversized frames — are returned bare.
type TransientError struct {
	Err error
	// RequestID is the failed call's request ID, when the failure happened
	// inside Call (empty for raw transport helpers).
	RequestID string
}

// Error implements the error interface.
func (e *TransientError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("wire: transient [%s]: %v", e.RequestID, e.Err)
	}
	return fmt.Sprintf("wire: transient: %v", e.Err)
}

// Unwrap exposes the underlying error.
func (e *TransientError) Unwrap() error { return e.Err }

// Overloaded marks a handler error as load shedding: the server is healthy
// but refusing work, so the request is worth retrying after RetryAfter.
// Handlers wrap their typed overload errors in it; the server answers with
// a retryable response carrying the hint, which the client surfaces as an
// OverloadedError. errors.Is/As reach through to the wrapped error.
type Overloaded struct {
	Err error
	// RetryAfter is the server's hint for when capacity should be back;
	// zero means "soon, use your own backoff".
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *Overloaded) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error.
func (e *Overloaded) Unwrap() error { return e.Err }

// OverloadedError is the client-side view of a shed request: transient by
// classification (retrying helps once load drains), with the server's
// retry-after hint attached for the caller's backoff to honor.
type OverloadedError struct {
	Method  string
	Message string
	// RetryAfter is the server's hint; zero means the server sent none.
	RetryAfter time.Duration
	// RequestID is the shed call's request ID, matching the server's span.
	RequestID string
}

// Error implements the error interface.
func (e *OverloadedError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("wire: overloaded from %s [%s]: %s (retry after %s)", e.Method, e.RequestID, e.Message, e.RetryAfter)
	}
	return fmt.Sprintf("wire: overloaded from %s: %s (retry after %s)", e.Method, e.Message, e.RetryAfter)
}

// IsTransient reports whether err is worth retrying: the failure came from
// the transport (lost connection, timeout, dial refusal) or the server shed
// the request under overload, rather than the remote handler rejecting it
// or the caller's own payload being broken.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return true
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, ErrMessageTooLarge) || errors.Is(err, ErrClientClosed) {
		return false
	}
	// Raw transport errors from direct ReadMessage/WriteMessage use.
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// RemoteError is a server-side failure surfaced to the caller: the server
// is reachable and answered, so retrying the identical request is unlikely
// to help (permanent by IsTransient's classification).
type RemoteError struct {
	Method  string
	Message string
	// RequestID is the failed call's request ID, matching the server's
	// span for the same request.
	RequestID string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("wire: remote error from %s [%s]: %s", e.Method, e.RequestID, e.Message)
	}
	return fmt.Sprintf("wire: remote error from %s: %s", e.Method, e.Message)
}

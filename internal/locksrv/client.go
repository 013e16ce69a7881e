package locksrv

import (
	"errors"
	"fmt"
	"net"
	"time"

	"granulock/internal/obs"
	"granulock/internal/rng"
)

// Typed protocol errors, decoded from a reply's status byte and matched
// with errors.Is. These are lock-protocol outcomes, not transport
// failures: the client never retries them at the transport layer (the
// caller decides — a timed-out acquire is commonly retried after
// releasing, a foreign release is a logic bug).
//
// locksrv is a wire boundary: every error the package constructs in a
// function body must wrap one of these taxonomy values with %w, so
// callers on the far side can dispatch with errors.Is. The errtaxonomy
// analyzer (cmd/granulint) enforces this.
//
//granulint:wireboundary
var (
	// ErrTimeout: the acquire's wait deadline (timeout_ms) expired.
	ErrTimeout = errors.New("locksrv: acquire timed out")
	// ErrNotOwner: release of a transaction granted on another session.
	ErrNotOwner = errors.New("locksrv: transaction owned by another session")
	// ErrSessionClosed: the server is draining or closed the session.
	ErrSessionClosed = errors.New("locksrv: session closed by server")
	// ErrClientClosed: Close was called on this client; no further
	// requests or reconnects will be attempted.
	ErrClientClosed = errors.New("locksrv: client closed")
	// ErrBadRequest: the server rejected the request as malformed
	// (bad_request) — a client bug, not a transient fault.
	ErrBadRequest = errors.New("locksrv: bad request")
	// ErrUnknownOp: the server does not implement the requested op —
	// a protocol-version mismatch between client and server.
	ErrUnknownOp = errors.New("locksrv: unknown op")
	// ErrMalformedReply: the client could not decode a server reply, or
	// the reply carried a status outside the taxonomy — framing or
	// protocol state is suspect.
	ErrMalformedReply = errors.New("locksrv: malformed reply")
	// ErrRedirect: the request reached a cluster node that does not
	// serve the granule set. The concrete error is a *RedirectError
	// carrying the owning node's index and address (errors.As); the
	// cluster client follows it transparently.
	ErrRedirect = errors.New("locksrv: granule served by another node")
	// ErrLeaseExpired: a lease re-assert lost the failover race — the
	// recovery window sealed before the assert arrived, or the grants
	// conflict with state already reconstructed. The transaction's locks
	// are gone and the caller must re-claim from scratch.
	ErrLeaseExpired = errors.New("locksrv: lease expired")
	// ErrUnavailable: the server could not durably journal the grant
	// (WithJournal); the claim was withdrawn and may be retried.
	ErrUnavailable = errors.New("locksrv: grant journal unavailable")
)

// statusErrs is the one mapping from wire status to typed error. A
// status outside the table decodes as ErrMalformedReply.
var statusErrs = [...]error{
	statusTimeout:      ErrTimeout,
	statusClosed:       ErrSessionClosed,
	statusNotOwner:     ErrNotOwner,
	statusBadRequest:   ErrBadRequest,
	statusUnknownOp:    ErrUnknownOp,
	statusRedirect:     ErrRedirect,
	statusLeaseExpired: ErrLeaseExpired,
	statusUnavailable:  ErrUnavailable,
}

// statusErr converts a reply status and its detail into a typed error;
// nil for statusOK. A well-formed redirect detail becomes a
// *RedirectError.
func statusErr(op string, status byte, detail []byte) error {
	if status == statusOK {
		return nil
	}
	var base error = ErrMalformedReply
	if int(status) < len(statusErrs) && statusErrs[status] != nil {
		base = statusErrs[status]
	}
	if status == statusRedirect {
		if node, addr, ok := parseRedirectDetail(string(detail)); ok {
			base = &RedirectError{Node: node, Addr: addr}
		}
	}
	return fmt.Errorf("locksrv: %s: %w (%s)", op, base, detail)
}

// RedirectError is the concrete error behind ErrRedirect: the serving
// node's ring index and dial address, parsed from the redirect detail.
// Match with errors.As to follow the redirect, or
// errors.Is(err, ErrRedirect) to merely classify it.
type RedirectError struct {
	Node int    // ring index of the serving node
	Addr string // dial address of the serving node
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("locksrv: granule served by node %d at %s", e.Node, e.Addr)
}

// Unwrap chains to ErrRedirect so errors.Is classification works.
func (e *RedirectError) Unwrap() error { return ErrRedirect }

// redirectDetail encodes the serving node for a redirect reply; the
// format is shared by single frames and batch sub-item messages.
func redirectDetail(node int, addr string) string {
	return fmt.Sprintf("%d %s", node, addr)
}

// parseRedirectDetail is the inverse of redirectDetail. ok is false
// when the detail does not parse (a redirect from a future protocol
// revision degrades to the plain ErrRedirect classification).
func parseRedirectDetail(detail string) (node int, addr string, ok bool) {
	i := 0
	for i < len(detail) && detail[i] >= '0' && detail[i] <= '9' {
		node = node*10 + int(detail[i]-'0')
		i++
	}
	if i == 0 || i+1 >= len(detail) || detail[i] != ' ' {
		return 0, "", false
	}
	return node, detail[i+1:], true
}

// clientCfg is the configuration shared by ClientV2 and the cluster
// client; ClientOption values apply to either.
type clientCfg struct {
	addr string
	dial func(addr string) (net.Conn, error)

	retries     int // transport retries per request, beyond the first attempt
	backoffBase time.Duration
	backoffMax  time.Duration
	jitter      *rng.Source
	sleep       func(time.Duration) // test seam; nil means the default timer-backed sleep

	// Registry twins of the reconnect/retry counters, nil without
	// WithClientMetrics. Registration is idempotent, so a fleet of
	// workers sharing one registry aggregates into the same series.
	mReconnects *obs.Counter
	mRetries    *obs.Counter

	// Cluster-client knobs (WithLeaseInterval, WithFailoverTimeout,
	// WithRingVNodes); ignored by the single-node clients.
	leaseEvery   time.Duration
	failoverWait time.Duration
	ringVNodes   int
}

func defaultClientCfg(addr string) clientCfg {
	return clientCfg{
		addr: addr,
		dial: func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		},
		retries:     4,
		backoffBase: 10 * time.Millisecond,
		backoffMax:  time.Second,
		jitter:      rng.New(1),
	}
}

// ClientOption configures a ClientV2 or a ClusterClient.
type ClientOption func(*clientCfg)

// WithRetries sets how many times a request is retried after a
// transport failure (dial, send or receive). Default 4. Zero disables
// reconnection entirely: the first transport error is final.
func WithRetries(n int) ClientOption {
	return func(c *clientCfg) { c.retries = n }
}

// WithBackoff sets the reconnect backoff: attempt k sleeps for
// base·2^k, capped at max, with deterministic jitter in [d/2, d).
// Default 10ms base, 1s cap.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *clientCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithJitterSeed seeds the deterministic backoff jitter stream, so a
// fleet of workers with distinct seeds desynchronizes its reconnect
// storms reproducibly. Default seed 1.
func WithJitterSeed(seed uint64) ClientOption {
	return func(c *clientCfg) { c.jitter = rng.New(seed) }
}

// WithDialer replaces the transport dialer — how the client (re)opens
// its connection. Fault-injection tests wrap the returned conn (see
// FaultyDialer).
func WithDialer(dial func(addr string) (net.Conn, error)) ClientOption {
	return func(c *clientCfg) { c.dial = dial }
}

// WithClientMetrics mirrors the client's reconnect and retry counters
// into reg (granulock_locksrv_client_reconnects_total,
// granulock_locksrv_client_retries_total). Clients sharing a registry
// aggregate into the same series, one series per fleet.
func WithClientMetrics(reg *obs.Registry) ClientOption {
	return func(c *clientCfg) {
		c.mReconnects = reg.NewCounter("granulock_locksrv_client_reconnects_total",
			"Connections re-established after a transport failure.")
		c.mRetries = reg.NewCounter("granulock_locksrv_client_retries_total",
			"Request attempts that were transport retries.")
	}
}

package locksrv

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/lockmgr"
)

// startServer launches a server on an ephemeral port and returns its
// address plus a cleanup.
func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, nil)
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), srv
}

func dial(t *testing.T, addr string) *ClientV2 {
	t.Helper()
	return dialV2(t, addr)
}

// rawSession is a hand-driven protocol connection: the magic is sent,
// then the test controls exactly which frames go on the wire.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	id   uint64
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(protoMagic)); err != nil {
		t.Fatal(err)
	}
	return &rawSession{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// frame encodes one request frame with the next request id.
func (r *rawSession) frame(op byte, build func(fb *frameBuf)) []byte {
	r.id++
	fb := getFrame()
	defer putFrame(fb)
	fb.start(op, r.id)
	build(fb)
	fb.finish()
	return append([]byte(nil), fb.bytes()...)
}

// call sends one request frame and returns the response's status and
// body.
func (r *rawSession) call(op byte, build func(fb *frameBuf)) (byte, string) {
	r.t.Helper()
	if _, err := r.conn.Write(r.frame(op, build)); err != nil {
		r.t.Fatal(err)
	}
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fb, st, id, body, err := readFrame(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	defer putFrame(fb)
	if id != r.id {
		r.t.Fatalf("response id %d, want %d", id, r.id)
	}
	return st, string(body)
}

// acquireBody builds an acquire frame body for the raw session.
func acquireBody(txn int64, reqs []lockmgr.Request, timeoutMS int64) func(fb *frameBuf) {
	return func(fb *frameBuf) { appendAcquireBody(fb, txn, reqs, timeoutMS) }
}

func xreq(granules ...int64) []lockmgr.Request {
	out := make([]lockmgr.Request, len(granules))
	for i, g := range granules {
		out[i] = lockmgr.Request{Granule: lockmgr.Granule(g), Mode: lockmgr.ModeExclusive}
	}
	return out
}

func TestAcquireReleaseRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	if err := c.AcquireAll(1, xreq(10, 11)); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Grants != 1 {
		t.Fatalf("grants %d", stats.Grants)
	}
	if err := c.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
}

func TestConflictBlocksAcrossConnections(t *testing.T) {
	addr, _ := startServer(t)
	holder := dial(t, addr)
	waiter := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- waiter.AcquireAll(2, xreq(5)) }()
	select {
	case err := <-done:
		t.Fatalf("conflicting claim granted remotely: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote waiter never granted after release")
	}
}

func TestSharedLocksCoexistRemotely(t *testing.T) {
	addr, _ := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)
	sreq := []lockmgr.Request{{Granule: 7, Mode: lockmgr.ModeShared}}
	if err := a.AcquireAll(1, sreq); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- b.AcquireAll(2, sreq) }()
	select {
	case err := <-granted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shared lock blocked remotely")
	}
}

func TestDisconnectReleasesLocks(t *testing.T) {
	addr, _ := startServer(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(3)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- waiter.AcquireAll(2, xreq(3)) }()
	time.Sleep(30 * time.Millisecond)
	holder.Close() // crash the holder's session
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter after holder crash: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("holder crash did not release its locks")
	}
}

func TestServerCloseUnblocksWaiters(t *testing.T) {
	addr, srv := startServer(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(9)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- waiter.AcquireAll(2, xreq(9)) }()
	time.Sleep(30 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Shutdown ordering races are fine (the waiter may be granted just
	// as the holder's teardown releases its locks, or see an error);
	// what must never happen is the waiter hanging forever.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("server close left waiter hanging")
	}
}

// TestProtocolErrors drives malformed requests over raw frames: each is
// answered with its typed status, and none costs the session.
func TestProtocolErrors(t *testing.T) {
	addr, _ := startServer(t)
	r := dialRaw(t, addr)
	check := func(name string, op byte, build func(fb *frameBuf), wantSt byte, wantErr string) {
		t.Helper()
		st, body := r.call(op, build)
		if st != wantSt || !strings.Contains(body, wantErr) {
			t.Fatalf("%s: status %d %q, want status %d containing %q", name, st, body, wantSt, wantErr)
		}
	}
	check("unknown op", 99, func(*frameBuf) {}, statusUnknownOp, "unknown op 99")
	check("zero granules", opAcquire, acquireBody(1, nil, 0), statusBadRequest, "without granules")
	check("trailing bytes", opAcquire, func(fb *frameBuf) {
		appendAcquireBody(fb, 1, xreq(1), 0)
		fb.appendByte(0)
	}, statusBadRequest, "malformed acquire body")
	check("stats with body", opStats, func(fb *frameBuf) { fb.appendByte(1) }, statusBadRequest, "stats takes no body")
	// The session survived every rejection.
	check("valid acquire", opAcquire, acquireBody(1, xreq(1), 0), statusOK, "")
}

func TestDistributedConservationStress(t *testing.T) {
	// Many client sessions in this process behave like shared-nothing
	// workers: exclusive claims must still be mutually exclusive across
	// the wire.
	addr, _ := startServer(t)
	var inCritical [4]atomic.Int32
	var txnSeq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialV2(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				txn := txnSeq.Add(1)
				g := int64((w + i) % 4)
				if err := c.AcquireAll(txn, xreq(g)); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if inCritical[g].Add(1) != 1 {
					t.Errorf("mutual exclusion violated on granule %d", g)
				}
				inCritical[g].Add(-1)
				if err := c.ReleaseAll(txn); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerDoubleCloseAndAddr(t *testing.T) {
	addr, srv := startServer(t)
	if srv.Addr().String() != addr {
		t.Fatal("addr mismatch")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

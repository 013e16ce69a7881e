package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"granulock/internal/lockmgr"
	"granulock/internal/locksrv"
	"granulock/internal/obs"
)

// Lock-service: an in-process lock server on loopback, one v2
// connection per client, each transaction one AcquireAll of a small
// mixed S/X set over a large granule space, then ReleaseAll. Set sizes
// run from 1 to lsMaxPerTxn so both the lock table's single-granule
// fast path and its multi-granule claim path carry traffic.
const (
	lsGranules  = 1 << 20
	lsMaxPerTxn = 4
)

// wireCount tallies the server side of every accepted connection: Read
// and Write calls (one syscall each when they reach the socket) and
// bytes moved.
type wireCount struct{ calls, bytes atomic.Int64 }

type countingListener struct {
	net.Listener
	c *wireCount
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCount
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.calls.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.calls.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

// lockService is one running server with its clients.
type lockService struct {
	srv     *locksrv.Server
	served  chan error
	reg     *obs.Registry
	wire    *wireCount
	clients []*locksrv.ClientV2
}

func startLockService(clients int) (*lockService, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &lockService{reg: obs.NewRegistry(), wire: &wireCount{}, served: make(chan error, 1)}
	ls.srv = locksrv.NewServer(countingListener{lis, ls.wire}, lockmgr.NewTable(lockmgr.WithMetrics(ls.reg)))
	go func() { ls.served <- ls.srv.Serve() }()
	for i := 0; i < clients; i++ {
		c, err := locksrv.DialV2(ls.srv.Addr().String())
		if err != nil {
			return nil, errors.Join(err, ls.close())
		}
		ls.clients = append(ls.clients, c)
	}
	return ls, nil
}

// close closes the clients, drains the server and waits for Serve to
// return.
func (ls *lockService) close() error {
	var errs []error
	for _, c := range ls.clients {
		errs = append(errs, c.Close())
	}
	errs = append(errs, ls.srv.Close(), <-ls.served)
	return errors.Join(errs...)
}

// retries sums the clients' transport retries.
func (ls *lockService) retries() int64 {
	var n int64
	for _, c := range ls.clients {
		n += c.Retries()
	}
	return n
}

// lsClient is a client's state: its request buffer.
type lsClient struct{ reqs []lockmgr.Request }

// lsDo returns the acquire-release loop: client i owns transaction ids
// congruent to i modulo the client count.
func lsDo(ls *lockService, clients int) txnFunc {
	return func(ctx context.Context, cl *client) (kind, error) {
		st := cl.state.(*lsClient)
		reqs := st.reqs[:0]
		size := 1 + cl.rng.IntN(lsMaxPerTxn)
		for len(reqs) < size {
			g := lockmgr.Granule(cl.rng.IntN(lsGranules))
			dup := false
			for _, q := range reqs {
				dup = dup || q.Granule == g
			}
			if dup {
				continue
			}
			mode := lockmgr.ModeShared
			if cl.rng.IntN(2) == 0 {
				mode = lockmgr.ModeExclusive
			}
			reqs = append(reqs, lockmgr.Request{Granule: g, Mode: mode})
		}
		st.reqs = reqs
		c := ls.clients[cl.id]
		txn := int64(cl.txn)*int64(clients) + int64(cl.id)
		id, s0 := cl.sb.newID(), cl.sb.now()
		err := c.AcquireAll(txn, reqs)
		if cl.sb != nil {
			cl.sb.add(span{Name: "locksrv.acquire", Txn: txnKey(cl), ID: id, Parent: cl.root, Start: s0, End: cl.sb.now()})
		}
		if err != nil {
			return kindWrite, err
		}
		id, s0 = cl.sb.newID(), cl.sb.now()
		err = c.ReleaseAll(txn)
		if cl.sb != nil {
			cl.sb.add(span{Name: "locksrv.release", Txn: txnKey(cl), ID: id, Parent: cl.root, Start: s0, End: cl.sb.now()})
		}
		return kindWrite, err
	}
}

func runLockService(r *runner) error {
	ls, err := setups(r, func(int) (*lockService, error) { return startLockService(r.clients) },
		func(ls *lockService) error { return ls.close() })
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "lock-service: loopback server, %d v2 connections, AcquireAll of 1 to %d granules (each S or X) over %d, then ReleaseAll\n",
		len(ls.clients), lsMaxPerTxn, lsGranules)
	cls := newClients(r.clients, r.seed)
	for _, cl := range cls {
		cl.state = &lsClient{}
	}
	var lb lockCounters
	var calls, bytes, retries int64
	var grants0 int64
	_, t, spans := r.measure(cls, r.window, loop{do: lsDo(ls, r.clients)}, func() {
		lb = readLockCounters(ls.reg, nil)
		calls, bytes, retries = ls.wire.calls.Load(), ls.wire.bytes.Load(), ls.retries()
		grants0 = ls.srv.Stats().Grants
	})
	if r.traced {
		txns := float64(t.attempted)
		r.setLockMetrics(lb, readLockCounters(ls.reg, nil), txns)
		r.set("locksrv.acquire_p50_ms", ms(percentile(durations(spans, "locksrv.acquire"), 50)))
		r.set("locksrv.release_p50_ms", ms(percentile(durations(spans, "locksrv.release"), 50)))
		r.set("locksrv.server_syscalls_per_txn", ratio(float64(ls.wire.calls.Load()-calls), txns))
		r.set("locksrv.wire_bytes_per_txn", ratio(float64(ls.wire.bytes.Load()-bytes), txns))
		r.set("locksrv.client_retries", float64(ls.retries()-retries))
		grants := ls.srv.Stats().Grants - grants0
		r.check(grants == t.attempted-t.failed, "lock-service: server granted %d acquires, clients completed %d", grants, t.attempted-t.failed)
	}

	// Every transaction released what it acquired: the server must hold
	// nothing and park no one, before and after the drain.
	st := ls.srv.Stats()
	r.check(st.Holders == 0 && st.Waiters == 0 && st.LockedGranules == 0,
		"lock-service: after the run %d holders, %d waiters, %d locked granules", st.Holders, st.Waiters, st.LockedGranules)
	table := ls.srv.Table()
	if err := ls.close(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	r.check(table.HoldersCount() == 0 && table.WaitersCount() == 0,
		"lock-service: after the drain %d holders, %d waiters", table.HoldersCount(), table.WaitersCount())
	return nil
}

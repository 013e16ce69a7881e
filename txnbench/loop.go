package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// kind classifies a transaction for per-kind latency.
type kind uint8

const (
	kindWrite kind = iota
	kindRead
	nKinds
)

// client is one closed-loop client: it sends its next transaction only
// after the previous one returns.
type client struct {
	id  int
	rng *rand.Rand
	// buf holds the client's spans in a traced run; sb points at it
	// during traced phases and is nil otherwise.
	buf *spanBuf
	sb  *spanBuf
	// txn numbers the client's transactions; root names the span of the
	// transaction in flight, the parent of the spans the workload records.
	txn  uint64
	root uint64
	// state is the workload's per-client state.
	state any
}

// newClients returns n clients whose generators derive from seed: the
// same seed gives every client the same transaction sequence.
func newClients(n int, seed uint64) []*client {
	cls := make([]*client, n)
	for i := range cls {
		cls[i] = &client{id: i, rng: rand.New(rand.NewPCG(seed, uint64(i)+0x9e3779b97f4a7c15))}
	}
	return cls
}

// txnFunc generates and runs one transaction for a client.
type txnFunc func(ctx context.Context, cl *client) (kind, error)

// loop is what a closed-loop client runs: do, timed, for every
// transaction, and between, untimed, after each one (nil for none).
// between is for housekeeping a client performs at a fixed transaction
// interval, such as a checkpoint; its error ends the client's loop.
type loop struct {
	do      txnFunc
	between func(ctx context.Context, cl *client) error
}

// phase is the outcome of one closed-loop measurement.
type phase struct {
	elapsed time.Duration
	// attempted and failed count every transaction the phase ran;
	// committed counts those that completed without error inside the
	// measured window, the ones throughput and latency describe.
	attempted int64
	failed    int64
	committed int64
	firstErr  error
	// betweenErr is the first error a client's between step returned.
	betweenErr error
	// full reports that a client's span buffer filled, which closed the
	// window early.
	full bool
	// lat holds the sorted latencies of the committed transactions, all
	// kinds and by kind; sub splits lat by the sub-window of slice
	// length each transaction completed in (each sub-window sorted).
	lat    []time.Duration
	byKind [nKinds][]time.Duration
	sub    [][]time.Duration
	// cpu, mallocs and allocBytes are the process's use during the phase.
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
}

// perSec returns committed transactions per second.
func (p phase) perSec() float64 { return float64(p.committed) / p.elapsed.Seconds() }

// slice is the sub-window length the end-to-end metrics are computed
// over: each is the median across the window's whole sub-windows, so a
// disturbance lasting less than half the window does not move it.
const slice = time.Second

// subMedian returns the median over whole sub-windows of f applied to
// each sub-window's sorted latencies.
func (p phase) subMedian(f func(lat []time.Duration) float64) float64 {
	var xs []float64
	for _, l := range p.sub {
		xs = append(xs, f(l))
	}
	return median(xs)
}

// add sums the transaction counts and the time of two phases.
func (p phase) add(q phase) phase {
	p.elapsed += q.elapsed
	p.attempted += q.attempted
	p.failed += q.failed
	p.committed += q.committed
	return p
}

// runPhase drives every client in a closed loop for window. A
// transaction counts as committed when it returns without error before
// the window closes; clients send nothing after it closes. A traced
// phase records spans in each client's buffer and closes the window
// early, for all clients at once, when any buffer fills.
func runPhase(ctx context.Context, cls []*client, window time.Duration, lp loop, traced bool) phase {
	var stop atomic.Int64 // window length in ns; only ever lowered
	stop.Store(int64(window))
	var full atomic.Bool
	var (
		mu  sync.Mutex
		out phase
		wg  sync.WaitGroup
	)
	before := readProc()
	start := time.Now()
	for _, cl := range cls {
		if traced {
			cl.sb = cl.buf
		}
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			var lats [nKinds][]time.Duration
			var subs [][]time.Duration
			var attempted, failed int64
			var firstErr, betweenErr error
			for time.Since(start) < time.Duration(stop.Load()) && ctx.Err() == nil {
				cl.txn++
				cl.root = cl.sb.newID()
				s0 := cl.sb.now()
				t0 := time.Now()
				k, err := lp.do(ctx, cl)
				t1 := time.Now()
				if cl.sb != nil {
					cl.sb.add(span{Name: "txn", Txn: txnKey(cl), ID: cl.root, Start: s0, End: cl.sb.now()})
					if cl.sb.full() {
						full.Store(true)
						lower(&stop, int64(t1.Sub(start)))
					}
				}
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				} else if end := t1.Sub(start); end <= time.Duration(stop.Load()) {
					lats[k] = append(lats[k], t1.Sub(t0))
					i := int(end / slice)
					for len(subs) <= i {
						subs = append(subs, nil)
					}
					subs[i] = append(subs[i], t1.Sub(t0))
				}
				if lp.between != nil {
					if betweenErr = lp.between(ctx, cl); betweenErr != nil {
						break
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.attempted += attempted
			out.failed += failed
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			if out.betweenErr == nil {
				out.betweenErr = betweenErr
			}
			for k := range lats {
				out.byKind[k] = append(out.byKind[k], lats[k]...)
			}
			for i, l := range subs {
				for len(out.sub) <= i {
					out.sub = append(out.sub, nil)
				}
				out.sub[i] = append(out.sub[i], l...)
			}
		}(cl)
	}
	wg.Wait()
	after := readProc()
	out.elapsed = time.Duration(stop.Load())
	out.cpu = after.cpu - before.cpu
	out.mallocs = after.mallocs - before.mallocs
	out.allocBytes = after.allocBytes - before.allocBytes
	for k := range out.byKind {
		slices.Sort(out.byKind[k])
		out.lat = append(out.lat, out.byKind[k]...)
	}
	slices.Sort(out.lat)
	out.committed = int64(len(out.lat))
	// Keep whole sub-windows only: the last one is partial unless the
	// window is a whole number of slices.
	out.sub = out.sub[:min(len(out.sub), int(out.elapsed/slice))]
	for _, l := range out.sub {
		slices.Sort(l)
	}
	for _, cl := range cls {
		cl.sb = nil
	}
	out.full = full.Load()
	return out
}

// lower sets a to v unless a already holds less.
func lower(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur <= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// txnKey returns a transaction identifier unique across clients.
func txnKey(cl *client) uint64 { return uint64(cl.id+1)<<40 | cl.txn }

// procUse is a snapshot of the process's cumulative resource use.
type procUse struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
}

// readProc reads the process's CPU time (user plus system) and its
// cumulative heap allocation counts.
func readProc() procUse {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUse{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

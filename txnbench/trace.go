package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call recorded by the traced run: a name, its
// interval in nanoseconds since the trace epoch, the span that caused
// it (0 for a root) and the benchmark transaction it belongs to (0 for
// work no single transaction owns, such as a WAL flush).
type span struct {
	Name   string
	Txn    uint64
	ID     uint64
	Parent uint64
	Start  int64
	End    int64
}

// spanBuf collects the spans of one writer goroutine in memory. A
// buffer has a single writer and is read only after that writer has
// stopped, so it needs no lock. A nil *spanBuf records nothing, which
// is how untraced phases run the same code.
type spanBuf struct {
	epoch time.Time
	owner uint64
	next  uint64
	limit int
	spans []span
}

// newSpanBuf returns a buffer whose span IDs carry owner in their high
// bits, so IDs from different buffers never collide.
func newSpanBuf(epoch time.Time, owner uint64, limit int) *spanBuf {
	return &spanBuf{epoch: epoch, owner: owner, limit: limit, spans: make([]span, 0, limit)}
}

// now returns the current time on the buffer's clock (0 when nil).
func (b *spanBuf) now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.epoch))
}

// newID allocates a span ID before the span ends, so children can name
// it as their parent.
func (b *spanBuf) newID() uint64 {
	if b == nil {
		return 0
	}
	b.next++
	return b.owner<<40 | b.next
}

// add records a finished span. Spans past the limit are dropped; full
// tells the caller to stop the traced phase before that happens.
func (b *spanBuf) add(s span) {
	if b == nil || len(b.spans) >= b.limit {
		return
	}
	b.spans = append(b.spans, s)
}

// full reports whether the buffer is nearly out of room: one more
// transaction's spans might not fit.
func (b *spanBuf) full() bool { return b != nil && len(b.spans) >= b.limit-spanHeadroom }

// spanHeadroom is the room kept free for the spans of one transaction
// in flight when a buffer is declared full (a relational transfer that
// retries many times records dozens).
const spanHeadroom = 4096

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval that
// its children cover (overlapping children are counted once; a child
// reaching outside its parent is clipped to the parent).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]int, len(spans)/2)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	var iv [][2]int64
	for _, s := range spans {
		iv = iv[:0]
		for _, ci := range children[s.ID] {
			c := spans[ci]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.Name] += (s.End - s.Start) - covered(iv)
	}
	return out
}

// covered returns the total length of the union of intervals (it sorts
// iv in place).
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}

// gather returns the spans of every buffer.
func gather(bufs ...*spanBuf) []span {
	var out []span
	for _, b := range bufs {
		out = append(out, b.spans...)
	}
	return out
}

// traceClients gives every client an empty span buffer on a shared
// epoch, and returns the buffers.
func traceClients(cls []*client, epoch time.Time) []*spanBuf {
	bufs := make([]*spanBuf, len(cls))
	for i, cl := range cls {
		cl.buf = newSpanBuf(epoch, uint64(cl.id+1), spanLimit)
		bufs[i] = cl.buf
	}
	return bufs
}

// durations returns the sorted durations of the spans named name.
func durations(spans []span, name string) []time.Duration {
	var ds []time.Duration
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	slices.Sort(ds)
	return ds
}

// writeSpans writes spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"txn":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Name, s.Txn, s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

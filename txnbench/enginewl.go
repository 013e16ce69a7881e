package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"granulock/internal/engine"
	"granulock/internal/obs"
	"granulock/internal/wal"
)

// initialBalance seeds every entity and row; transfers conserve the sum.
const initialBalance = 1000

// mix generates the engine workloads' transactions: readFrac of them
// read four entities, the rest run two transfers (four updates), every
// entity drawn by pick.
type mix struct {
	readFrac float64
	pick     func(*rand.Rand) int
	work     int
}

// next fills ops with one transaction and returns it with its kind.
func (m mix) next(rng *rand.Rand, ops []engine.Op) (engine.Txn, kind) {
	if rng.Float64() < m.readFrac {
		for i := 0; i < 4; i++ {
			ops = append(ops, engine.Op{Entity: m.pick(rng)})
		}
		return engine.Txn{Ops: ops, Work: m.work}, kindRead
	}
	for i := 0; i < 2; i++ {
		amount := 1 + rng.Int64N(100)
		ops = append(ops,
			engine.Op{Entity: m.pick(rng), Delta: -amount},
			engine.Op{Entity: m.pick(rng), Delta: amount})
	}
	return engine.Txn{Ops: ops, Work: m.work}, kindWrite
}

// engineClient is a client's state on the engine workloads: a reused op
// buffer and the deltas of its acknowledged transactions, which the
// checks compare with the database.
type engineClient struct {
	ops     []engine.Op
	delta   []int64
	updates int64
	n       int64
}

// engineDo returns the transaction loop over db: generate, Execute
// (timed as span engine.execute in a traced phase), and on success
// credit the acknowledged deltas.
func engineDo(db *engine.DB, m mix) txnFunc {
	return func(ctx context.Context, cl *client) (kind, error) {
		st := cl.state.(*engineClient)
		t, k := m.next(cl.rng, st.ops[:0])
		st.ops = t.Ops
		st.n++
		id, s0 := cl.sb.newID(), cl.sb.now()
		_, err := db.Execute(ctx, t)
		if cl.sb != nil {
			cl.sb.add(span{Name: "engine.execute", Txn: txnKey(cl), ID: id, Parent: cl.root, Start: s0, End: cl.sb.now()})
		}
		if err != nil {
			return k, err
		}
		if k == kindWrite {
			st.updates++
			for _, op := range t.Ops {
				st.delta[op.Entity] += op.Delta
			}
		}
		return k, nil
	}
}

// engineClients returns clients with engine state over n entities.
func engineClients(r *runner, seed uint64, n int) []*client {
	cls := newClients(r.clients, seed)
	for _, cl := range cls {
		cl.state = &engineClient{delta: make([]int64, n)}
	}
	return cls
}

// expected returns every entity's value implied by the clients'
// acknowledged transactions.
func expected(cls []*client, n int) []int64 {
	want := make([]int64, n)
	for i := range want {
		want[i] = initialBalance
	}
	for _, cl := range cls {
		for e, d := range cl.state.(*engineClient).delta {
			want[e] += d
		}
	}
	return want
}

// updates sums the clients' acknowledged update transactions.
func updates(cls []*client) int64 {
	var n int64
	for _, cl := range cls {
		n += cl.state.(*engineClient).updates
	}
	return n
}

// checkEngine verifies that db holds exactly the acknowledged
// transactions' effects and conserves the total balance.
func checkEngine(r *runner, label string, db *engine.DB, want []int64) {
	wrong := 0
	for e, w := range want {
		if v, err := db.Read(e); err != nil || v != w {
			wrong++
		}
	}
	r.check(wrong == 0, "%s: %d of %d entities differ from the acknowledged transactions", label, wrong, len(want))
	total := int64(len(want)) * initialBalance
	r.check(db.TotalBalance() == total, "%s: total balance %d, want %d", label, db.TotalBalance(), total)
}

// lockCounters reads the engine and lock-table counters a database
// mirrors into its registry.
type lockCounters struct {
	commits, restarts, blocks              float64
	grants, waits, deadlocks               float64
	fpGrants, fpFallbacks, spinWins, parks float64
}

func readLockCounters(reg *obs.Registry, db *engine.DB) lockCounters {
	v := func(name string) float64 {
		x, _ := reg.Value(name, nil) // absent families read as 0
		return x
	}
	c := lockCounters{
		grants:      v("granulock_lockmgr_grants_total"),
		waits:       v("granulock_lockmgr_waits_total"),
		deadlocks:   v("granulock_lockmgr_deadlocks_total"),
		fpGrants:    v("granulock_lockmgr_fastpath_grants_total"),
		fpFallbacks: v("granulock_lockmgr_fastpath_fallbacks_total"),
		spinWins:    v("granulock_lockmgr_fastpath_spin_wins_total"),
		parks:       v("granulock_lockmgr_fastpath_spin_parks_total"),
	}
	if db != nil {
		c.commits = v("granulock_engine_commits_total")
		c.restarts = v("granulock_engine_deadlock_retries_total")
		c.blocks = float64(db.Stats().Lock.Blocks)
	}
	return c
}

// setLockMetrics records the lockmgr metrics over b→a; commits is the
// commit count they are per.
func (r *runner) setLockMetrics(b, a lockCounters, commits float64) {
	grants := a.grants - b.grants
	r.set("lockmgr.waits_per_grant", ratio(a.waits-b.waits, grants))
	r.set("lockmgr.deadlocks_per_commit", ratio(a.deadlocks-b.deadlocks, commits))
	r.set("lockmgr.spin_win_frac", ratio(a.spinWins-b.spinWins, a.spinWins-b.spinWins+a.parks-b.parks))
	r.set("lockmgr.fastpath_grant_frac", ratio(a.fpGrants-b.fpGrants, grants))
	r.set("lockmgr.fastpath_fallbacks_per_grant", ratio(a.fpFallbacks-b.fpFallbacks, grants))
}

// setEngineMetrics records the engine's per-layer metrics: restarts and
// blocks per commit over b→a, and per-kind latency over the untraced
// phase u.
func (r *runner) setEngineMetrics(b, a lockCounters, u phase) {
	commits := a.commits - b.commits
	r.set("engine.restarts_per_commit", ratio(a.restarts-b.restarts, commits))
	r.set("engine.blocks_per_commit", ratio(a.blocks-b.blocks, commits))
	r.set("engine.read_txn_p50_ms", ms(percentile(u.byKind[kindRead], 50)))
	r.set("engine.write_txn_p50_ms", ms(percentile(u.byKind[kindWrite], 50)))
	r.setLockMetrics(b, a, commits)
}

// Hot-contention: a small in-memory database where lock waits,
// deadlocks and restarts carry the cost.
const (
	hotEntities = 300
	hotZipf     = 0.99
	// hotWork is the synthetic computation a transaction performs while
	// holding its locks, so locks are held for tens of microseconds.
	hotWork = 20000
)

func runHot(r *runner) error {
	z := newZipf(hotEntities, hotZipf)
	m := mix{readFrac: 0.2, pick: z.draw, work: hotWork}
	type inst struct {
		db  *engine.DB
		reg *obs.Registry
	}
	in, err := setups(r, func(int) (inst, error) {
		reg := obs.NewRegistry()
		db, err := engine.Open(hotEntities,
			engine.WithProtocol(engine.ClaimAsNeeded),
			engine.WithInitialValue(initialBalance),
			engine.WithMetrics(reg))
		return inst{db, reg}, err
	}, func(in inst) error { return in.db.Close() })
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "hot-contention: %d entities, Zipf %.2f, claim-as-needed, finest granules, Txn.Work %d, 20%% read-only\n",
		hotEntities, hotZipf, hotWork)
	cls := engineClients(r, r.seed, hotEntities)
	var before lockCounters
	u, _, _ := r.measure(cls, r.window, loop{do: engineDo(in.db, m)}, func() {
		before = readLockCounters(in.reg, in.db)
	})
	if r.traced {
		r.setEngineMetrics(before, readLockCounters(in.reg, in.db), u)
	}
	checkEngine(r, "hot-contention", in.db, expected(cls, hotEntities))
	return in.db.Close()
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// Durable-transfer: file-backed, per-partition group-commit logs with
// real fsync, uniform access, checkpoints at a fixed interval.
const (
	durEntities = 100_000
	durNodes    = 4
	// durCheckpointEvery is client 0's transaction interval between
	// checkpoints.
	durCheckpointEvery = 5000
	// durTail is the checkpoint-free run before the recovery check.
	durTail = 500 * time.Millisecond
)

// ioCount is a FaultInjector that allows every operation and counts the
// bytes written to and the syncs of the log devices exactly.
type ioCount struct{ bytes, syncs atomic.Int64 }

func (c *ioCount) observe(op string, n int) (int, error) {
	switch op {
	case "write":
		c.bytes.Add(int64(n))
	case "sync":
		c.syncs.Add(1)
	}
	return n, nil
}

// durable is one open durable database with its counters.
type durable struct {
	db  *engine.DB
	reg *obs.Registry
	io  *ioCount
	dir string
	// Checkpoint accounting (client 0 only): durations, and the snapshot
	// bytes and syncs the injector saw, subtracted from the log figures.
	ckpts     []time.Duration
	snapBytes int64
}

func durableOptions(opts ...engine.Option) []engine.Option {
	return append([]engine.Option{
		engine.WithNodes(durNodes),
		engine.WithProtocol(engine.Conservative),
		engine.WithInitialValue(initialBalance),
	}, opts...)
}

func openDurable(dir string) (*durable, error) {
	d := &durable{reg: obs.NewRegistry(), io: &ioCount{}, dir: dir}
	db, _, err := engine.OpenDurable(dir, durEntities, durableOptions(
		engine.WithMetrics(d.reg),
		engine.WithWALOptions(wal.WithFaultInjector(d.io.observe)))...)
	d.db = db
	return d, err
}

// checkpoint runs between client 0's transactions every
// durCheckpointEvery of them, timed (span engine.checkpoint when traced).
func (d *durable) checkpoint(ctx context.Context, cl *client) error {
	st := cl.state.(*engineClient)
	if cl.id != 0 || st.n%durCheckpointEvery != 0 {
		return nil
	}
	id, s0, t0 := cl.sb.newID(), cl.sb.now(), time.Now()
	err := d.db.Checkpoint(ctx)
	d.ckpts = append(d.ckpts, time.Since(t0))
	if cl.sb != nil {
		cl.sb.add(span{Name: "engine.checkpoint", ID: id, Start: s0, End: cl.sb.now()})
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	fi, err := os.Stat(filepath.Join(d.dir, "snapshot.snap"))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	d.snapBytes += fi.Size()
	return nil
}

// walCounters is a snapshot of the log traffic attributable to
// transactions: injector counts minus checkpoint snapshot traffic (one
// staged write stream and one sync per checkpoint).
type walCounters struct{ syncs, bytes, updates float64 }

func (d *durable) walCounters(cls []*client) walCounters {
	return walCounters{
		syncs:   float64(d.io.syncs.Load() - int64(len(d.ckpts))),
		bytes:   float64(d.io.bytes.Load() - d.snapBytes),
		updates: float64(updates(cls)),
	}
}

func runDurable(r *runner) error {
	m := mix{readFrac: 0.2, pick: func(rng *rand.Rand) int { return rng.IntN(durEntities) }}
	d, err := setups(r, func(i int) (*durable, error) {
		return openDurable(filepath.Join(r.dir, fmt.Sprintf("db-%d", i)))
	}, func(d *durable) error {
		if err := d.db.Close(); err != nil {
			return err
		}
		return os.RemoveAll(d.dir)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "durable-transfer: %d entities, %d nodes with one log each, conservative, finest granules, uniform, 20%% read-only, checkpoint every %d transactions of client 0\n",
		durEntities, durNodes, durCheckpointEvery)
	fmt.Fprintf(r.out, "durable-transfer: flush policy is the wal default: group commit, one flusher per log, no linger, no batch cap, one fsync per flush\n")
	cls := engineClients(r, r.seed, durEntities)
	lp := loop{do: engineDo(d.db, m), between: d.checkpoint}
	window := r.window
	if r.traced {
		window = r.window * 2 / 3 // the last third times the log devices
	}
	var lb lockCounters
	var wb walCounters
	u, _, _ := r.measure(cls, window, lp, func() {
		lb, wb = readLockCounters(d.reg, d.db), d.walCounters(cls)
	})
	if r.traced {
		r.setEngineMetrics(lb, readLockCounters(d.reg, d.db), u)
		wa := d.walCounters(cls)
		r.set("wal.syncs_per_commit", ratio(wa.syncs-wb.syncs, wa.updates-wb.updates))
		r.set("wal.bytes_per_commit", ratio(wa.bytes-wb.bytes, wa.updates-wb.updates))
	}
	if len(d.ckpts) > 0 {
		ck := slices.Clone(d.ckpts)
		slices.Sort(ck)
		r.set("engine.checkpoint_ms", ms(percentile(ck, 50)))
	}
	r.check(len(d.ckpts) > 0, "durable-transfer: no checkpoint ran")

	// A tail without checkpoints leaves acknowledged transactions that
	// only the log holds, so the reopen below must replay log records,
	// not just load the last snapshot.
	r.phase(cls, durTail, loop{do: engineDo(d.db, m)}, false)

	// Close, reopen and compare: every acknowledged update must be
	// recovered, and the recovered values must equal those before close.
	want := expected(cls, durEntities)
	checkEngine(r, "before close", d.db, want)
	if err := d.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	t0 := time.Now()
	db, stats, err := engine.OpenDurable(d.dir, durEntities, durableOptions()...)
	recovery := time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.set("recovery_s", recovery.Seconds())
	records := 0
	for _, l := range stats.Logs {
		records += l.Records
	}
	r.set("wal.recovered_records", float64(records))
	fmt.Fprintf(r.out, "recovery: %.6fs, %d records, %d committed, %d incomplete, %d cross-partition partial\n",
		recovery.Seconds(), records, stats.Committed, stats.Incomplete, stats.CrossPartial)
	r.check(stats.Incomplete == 0 && stats.CrossPartial == 0 && stats.OrderViolations == 0,
		"recovery after a clean close found %d incomplete, %d partial, %d out-of-order transactions",
		stats.Incomplete, stats.CrossPartial, stats.OrderViolations)
	checkEngine(r, "after reopen", db, want)
	if err := db.Close(); err != nil {
		return fmt.Errorf("close reopened: %w", err)
	}
	if r.traced {
		return r.deviceTimes(m, r.window/3)
	}
	return nil
}

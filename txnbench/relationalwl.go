package main

import (
	"context"
	"fmt"
	"time"

	"granulock/internal/relation"
)

// Relational-transfer: Get-from, Get-to, Update, Update transfers over
// an indexed, partitioned table, through relation.DB.Exec.
const (
	relRows      = 20_000
	relParts     = 4
	relGranule   = 100 // rows per lock granule: page-level locking
	relLoadBatch = 1000
)

// colBalance is the balance column's position in the schema.
const colBalance = 1

// relDB is one loaded database.
type relDB struct {
	db  *relation.DB
	tbl *relation.Table
}

func openRelational(ctx context.Context) (relDB, error) {
	db := relation.NewDB("bank")
	tbl, err := db.CreateTable("accounts", relation.Schema{Columns: []relation.Column{
		{Name: "owner", Type: relation.String},
		{Name: "balance", Type: relation.Int},
	}}, relParts, relGranule)
	if err != nil {
		return relDB{}, err
	}
	if _, err := db.CreateIndex(tbl, "owner"); err != nil {
		return relDB{}, err
	}
	for lo := 0; lo < relRows; lo += relLoadBatch {
		err := db.Exec(ctx, func(tx *relation.Txn) error {
			for id := lo; id < min(lo+relLoadBatch, relRows); id++ {
				if _, err := tx.Insert(tbl, relation.Tuple{
					relation.StrDatum(fmt.Sprintf("acct-%d", id)),
					relation.IntDatum(initialBalance),
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return relDB{}, fmt.Errorf("load rows: %w", err)
		}
	}
	return relDB{db, tbl}, nil
}

// relClient is a client's state: acknowledged deltas per row, and in a
// traced phase the time Exec spent in total and inside each call's
// final, successful closure.
type relClient struct {
	delta      []int64
	execTime   time.Duration
	finalTime  time.Duration
	lastClosed time.Duration
}

// relDo returns the transfer loop over rd.
func relDo(rd relDB) txnFunc {
	return func(ctx context.Context, cl *client) (kind, error) {
		st := cl.state.(*relClient)
		from := cl.rng.IntN(relRows)
		to := (from + 1 + cl.rng.IntN(relRows-1)) % relRows
		amount := 1 + cl.rng.Int64N(100)
		if cl.sb == nil {
			err := rd.db.Exec(ctx, func(tx *relation.Txn) error {
				return transfer(tx, rd.tbl, int64(from), int64(to), amount, nil, 0, 0)
			})
			if err == nil {
				st.delta[from] -= amount
				st.delta[to] += amount
			}
			return kindWrite, err
		}
		sb, key := cl.sb, txnKey(cl)
		execID, e0, t0 := sb.newID(), sb.now(), time.Now()
		err := rd.db.Exec(ctx, func(tx *relation.Txn) error {
			id, s0, c0 := sb.newID(), sb.now(), time.Now()
			err := transfer(tx, rd.tbl, int64(from), int64(to), amount, sb, key, id)
			st.lastClosed = time.Since(c0)
			sb.add(span{Name: "relation.closure", Txn: key, ID: id, Parent: execID, Start: s0, End: sb.now()})
			return err
		})
		st.execTime += time.Since(t0)
		sb.add(span{Name: "relation.exec", Txn: key, ID: execID, Parent: cl.root, Start: e0, End: sb.now()})
		if err != nil {
			return kindWrite, err
		}
		st.finalTime += st.lastClosed
		st.delta[from] -= amount
		st.delta[to] += amount
		return kindWrite, nil
	}
}

// transfer is the read-then-update transaction body: Get both rows
// (shared locks), then Update both (upgrades to exclusive). With a span
// buffer, each call is recorded under parent.
func transfer(tx *relation.Txn, tbl *relation.Table, from, to, amount int64, sb *spanBuf, key, parent uint64) error {
	timed := func(name string, f func() error) error {
		if sb == nil {
			return f()
		}
		id, s0 := sb.newID(), sb.now()
		err := f()
		sb.add(span{Name: name, Txn: key, ID: id, Parent: parent, Start: s0, End: sb.now()})
		return err
	}
	var a, b relation.Tuple
	if err := timed("relation.get", func() (err error) { a, err = tx.Get(tbl, from); return }); err != nil {
		return err
	}
	if err := timed("relation.get", func() (err error) { b, err = tx.Get(tbl, to); return }); err != nil {
		return err
	}
	if err := timed("relation.update", func() error {
		return tx.Update(tbl, from, "balance", relation.IntDatum(a[colBalance].Int-amount))
	}); err != nil {
		return err
	}
	return timed("relation.update", func() error {
		return tx.Update(tbl, to, "balance", relation.IntDatum(b[colBalance].Int+amount))
	})
}

func runRelational(r *runner) error {
	rd, err := setups(r, func(int) (relDB, error) { return openRelational(r.ctx) },
		func(relDB) error { return nil })
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "relational-transfer: %d rows, %d partitions, %d row(s) per granule, hash index on owner, Get-Get-Update-Update transfers\n",
		relRows, relParts, relGranule)
	cls := newClients(r.clients, r.seed)
	for _, cl := range cls {
		cl.state = &relClient{delta: make([]int64, relRows)}
	}
	var before relation.Stats
	_, t, spans := r.measure(cls, r.window, loop{do: relDo(rd)}, func() { before = rd.db.Stats() })
	if r.traced {
		after := rd.db.Stats()
		commits := float64(after.Commits - before.Commits)
		r.set("relation.aborts_per_commit", ratio(float64(after.Aborts-before.Aborts), commits))
		r.set("relation.lock_grants_per_commit", ratio(float64(after.Lock.Grants-before.Lock.Grants), commits))
		r.set("relation.lock_blocks_per_commit", ratio(float64(after.Lock.Blocks-before.Lock.Blocks), commits))
		r.set("lockmgr.waits_per_grant", ratio(float64(after.Lock.Blocks-before.Lock.Blocks), float64(after.Lock.Grants-before.Lock.Grants)))
		r.set("lockmgr.deadlocks_per_commit", ratio(float64(after.Deadlocks-before.Deadlocks), commits))
		r.set("relation.get_p50_ms", ms(percentile(durations(spans, "relation.get"), 50)))
		r.set("relation.update_p50_ms", ms(percentile(durations(spans, "relation.update"), 50)))
		var exec, final time.Duration
		for _, cl := range cls {
			st := cl.state.(*relClient)
			exec += st.execTime
			final += st.finalTime
		}
		r.set("relation.retry_frac", 1-ratio(final.Seconds(), exec.Seconds()))
		fmt.Fprintf(r.out, "relational-transfer: traced phase %d commits\n", t.committed)
	}
	return checkRelational(r, rd, cls)
}

// checkRelational verifies that every row holds exactly the
// acknowledged transfers' effects and that the total is conserved.
func checkRelational(r *runner, rd relDB, cls []*client) error {
	wrong := 0
	var total int64
	err := rd.db.Exec(r.ctx, func(tx *relation.Txn) error {
		wrong, total = 0, 0
		for id := 0; id < relRows; id++ {
			tup, err := tx.Get(rd.tbl, int64(id))
			if err != nil {
				return err
			}
			want := int64(initialBalance)
			for _, cl := range cls {
				want += cl.state.(*relClient).delta[id]
			}
			if tup[colBalance].Int != want {
				wrong++
			}
			total += tup[colBalance].Int
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("read back rows: %w", err)
	}
	r.check(wrong == 0, "relational-transfer: %d of %d rows differ from the acknowledged transfers", wrong, relRows)
	r.check(total == relRows*initialBalance, "relational-transfer: total balance %d, want %d", total, relRows*initialBalance)
	return nil
}

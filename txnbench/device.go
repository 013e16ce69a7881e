package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"granulock/internal/engine"
	"granulock/internal/wal"
)

// timedDevice is a log device handed to wal.NewLog: a preallocated file
// written at a tracked offset and fsynced on Sync, like the files
// OpenDurable manages, with every Write and Sync recorded as a span.
// Only the log's flusher goroutine calls it.
type timedDevice struct {
	f   *os.File
	off int64
	sb  *spanBuf
}

func (d *timedDevice) Write(p []byte) (int, error) {
	s0 := d.sb.now()
	n, err := d.f.WriteAt(p, d.off)
	d.off += int64(n)
	d.sb.add(span{Name: "wal.write", ID: d.sb.newID(), Start: s0, End: d.sb.now()})
	return n, err
}

func (d *timedDevice) Sync() error {
	s0 := d.sb.now()
	err := d.f.Sync()
	d.sb.add(span{Name: "wal.sync", ID: d.sb.newID(), Start: s0, End: d.sb.now()})
	return err
}

// deviceTimes runs the durable-transfer transactions for window over
// timed log devices (wal.NewLog per partition, engine.WithWAL) and
// records the devices' write and sync times. Checkpoints need an
// OpenDurable database, so this phase runs none. Its recovery check
// replays the device files.
func (r *runner) deviceTimes(m mix, window time.Duration) error {
	dir := filepath.Join(r.dir, "devices")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	epoch := time.Now()
	devs := make([]*timedDevice, durNodes)
	logs := make([]*wal.Log, durNodes)
	for k := range devs {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("log-%d", k)))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.Truncate(1 << 20); err != nil {
			return err
		}
		devs[k] = &timedDevice{f: f, sb: newSpanBuf(epoch, uint64(100+k), spanLimit)}
		logs[k] = wal.NewLog(devs[k])
	}
	set, err := wal.NewSet(logs...)
	if err != nil {
		return err
	}
	db, err := engine.Open(durEntities, durableOptions(engine.WithWAL(set))...)
	if err != nil {
		return errors.Join(err, set.Close())
	}
	cls := engineClients(r, r.seed^0xde1ce, durEntities)
	bufs := traceClients(cls, epoch)
	p := r.phase(cls, window, loop{do: engineDo(db, m)}, true)
	if err := set.Close(); err != nil {
		return fmt.Errorf("close device logs: %w", err)
	}
	for _, d := range devs {
		bufs = append(bufs, d.sb)
	}
	spans := gather(bufs...)
	want := expected(cls, durEntities)
	checkEngine(r, "device phase", db, want)

	syncs := durations(spans, "wal.sync")
	var busy time.Duration
	for _, s := range syncs {
		busy += s
	}
	r.set("wal.sync_p50_ms", ms(percentile(syncs, 50)))
	r.set("wal.sync_p99_ms", ms(percentile(syncs, 99)))
	r.set("wal.sync_busy_frac", busy.Seconds()/(p.elapsed.Seconds()*durNodes))
	r.check(beyond(len(syncs), 99) >= minBeyond, "wal.sync_p99_ms: %d syncs leave fewer than %d beyond p99", len(syncs), minBeyond)
	r.selfTimes(spans, "wal.")

	// Replay the device files: the recovered state must be every
	// acknowledged transaction.
	readers := make([]*wal.Reader, len(devs))
	for k, d := range devs {
		if _, err := d.f.Seek(0, 0); err != nil {
			return err
		}
		readers[k] = wal.NewReader(d.f)
	}
	got := make([]int64, durEntities)
	for i := range got {
		got[i] = initialBalance
	}
	stats, err := wal.RecoverSet(readers, func(e, v int64) { got[e] = v })
	if err != nil {
		return fmt.Errorf("replay device logs: %w", err)
	}
	wrong := 0
	for e := range want {
		if got[e] != want[e] {
			wrong++
		}
	}
	r.check(wrong == 0, "device phase: replay differs from the acknowledged transactions at %d entities", wrong)
	r.check(stats.Incomplete == 0 && stats.CrossPartial == 0 && stats.OrderViolations == 0,
		"device phase: replay found %d incomplete, %d partial, %d out-of-order transactions",
		stats.Incomplete, stats.CrossPartial, stats.OrderViolations)
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strings"
)

// spec names one reported metric and its unit.
type spec struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run on every workload. BENCHMARK.json lists the same names.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"txn_p50_ms", "ms"},
	{"txn_p90_ms", "ms"},
}

// perLayer are the metrics of single layers, reported by every traced
// run on every workload; a layer a workload does not reach reports 0.
// BENCHMARK.json lists the same names. README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = []spec{
	{"error_rate", "ratio"},
	{"txn_p99_ms", "ms"},
	{"txn_samples", "count"},
	{"recovery_s", "s"},
	{"env.nproc", "count"},
	{"env.gomaxprocs", "count"},
	{"env.clients", "count"},
	{"env.fsync_p50_ms", "ms"},
	{"trace.untraced_txn_per_s", "1/s"},
	{"trace.traced_txn_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"engine.restarts_per_commit", "ratio"},
	{"engine.blocks_per_commit", "ratio"},
	{"engine.read_txn_p50_ms", "ms"},
	{"engine.write_txn_p50_ms", "ms"},
	{"engine.checkpoint_ms", "ms"},
	{"lockmgr.waits_per_grant", "ratio"},
	{"lockmgr.deadlocks_per_commit", "ratio"},
	{"lockmgr.spin_win_frac", "ratio"},
	{"lockmgr.fastpath_grant_frac", "ratio"},
	{"lockmgr.fastpath_fallbacks_per_grant", "ratio"},
	{"wal.syncs_per_commit", "ratio"},
	{"wal.bytes_per_commit", "B"},
	{"wal.recovered_records", "count"},
	{"wal.sync_p50_ms", "ms"},
	{"wal.sync_p99_ms", "ms"},
	{"wal.sync_busy_frac", "ratio"},
	{"relation.aborts_per_commit", "ratio"},
	{"relation.lock_grants_per_commit", "ratio"},
	{"relation.lock_blocks_per_commit", "ratio"},
	{"relation.get_p50_ms", "ms"},
	{"relation.update_p50_ms", "ms"},
	{"relation.retry_frac", "ratio"},
	{"locksrv.acquire_p50_ms", "ms"},
	{"locksrv.release_p50_ms", "ms"},
	{"locksrv.server_syscalls_per_txn", "ratio"},
	{"locksrv.wire_bytes_per_txn", "B"},
	{"locksrv.client_retries", "count"},
	{"process.cpu_us_per_txn", "us"},
	{"process.allocs_per_txn", "count"},
	{"process.alloc_bytes_per_txn", "B"},
	{"process.max_rss_mb", "MB"},
	{"selftime.txn_us_per_txn", "us"},
	{"selftime.engine.execute_us_per_txn", "us"},
	{"selftime.engine.checkpoint_us_per_txn", "us"},
	{"selftime.wal.write_us_per_txn", "us"},
	{"selftime.wal.sync_us_per_txn", "us"},
	{"selftime.relation.exec_us_per_txn", "us"},
	{"selftime.relation.closure_us_per_txn", "us"},
	{"selftime.relation.get_us_per_txn", "us"},
	{"selftime.relation.update_us_per_txn", "us"},
	{"selftime.locksrv.acquire_us_per_txn", "us"},
	{"selftime.locksrv.release_us_per_txn", "us"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name: a
// letter or digit, then up to 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal unit: 1 to 16 letters, digits,
// '_', '/', '%', '.' or '-'.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildResult selects the catalogue's metrics from the measured values.
// A per-layer metric the workload did not measure reports 0 and is
// listed in notOnPath; an end-to-end metric must always be measured.
func buildResult(specs []spec, values map[string]float64, zeroOK bool) (m map[string]metric, notOnPath []string, err error) {
	m = make(map[string]metric, len(specs))
	for _, s := range specs {
		if !validName(s.name) || !validUnit(s.unit) {
			return nil, nil, fmt.Errorf("metric %q unit %q: invalid name or unit", s.name, s.unit)
		}
		v, ok := values[s.name]
		switch {
		case !ok && zeroOK:
			notOnPath = append(notOnPath, s.name)
		case !ok:
			return nil, nil, fmt.Errorf("metric %s was not measured", s.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, nil, fmt.Errorf("metric %s is %v", s.name, v)
		case v == 0 && !zeroOK:
			return nil, nil, fmt.Errorf("metric %s measured 0", s.name)
		}
		m[s.name] = metric{Value: v, Unit: s.unit}
	}
	return m, notOnPath, nil
}

// printValues writes every measured value, one "metric" line each, in
// name order.
func printValues(w io.Writer, values map[string]float64) {
	units := make(map[string]string)
	for _, s := range append(slices.Clone(endToEnd), perLayer...) {
		units[s.name] = s.unit
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		unit := units[n]
		if unit == "" {
			unit = "-"
		}
		fmt.Fprintf(w, "metric %-40s %.6g %s\n", n, values[n], unit)
	}
}

// emit writes the result as the last output line.
func emit(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(b)))
	return err
}

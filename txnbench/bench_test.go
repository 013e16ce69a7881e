package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i + 1)
		}
		return s
	}
	cases := []struct {
		n, p int
		want time.Duration
	}{
		{0, 50, 0},
		{1, 50, 1},
		{1, 99, 1},
		{2, 50, 1},
		{3, 50, 2},
		{4, 50, 2},
		{100, 50, 50},
		{100, 99, 99},
		{100, 100, 100},
		{1000, 99, 990}, // float 0.99*1000 would round up to rank 991
		{1001, 99, 991},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, p%d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestBeyondCountsTheTail(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{0, 99, 0},
		{999, 99, 9},
		{1000, 99, 10},
		{100, 50, 50},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// root 1 [0,100] with children 2 [10,30] and 3 [20,40]
		// (overlapping, union 30) and 4 [90,120] (clipped to 10).
		{Name: "txn", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "a", ID: 3, Parent: 1, Start: 20, End: 40},
		{Name: "b", ID: 4, Parent: 1, Start: 90, End: 120},
		// grandchild 5 [12,18] under 2.
		{Name: "c", ID: 5, Parent: 2, Start: 12, End: 18},
		// a second root with no children.
		{Name: "txn", ID: 6, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"txn": 100 - 40 + 10,
		"a":   (20 - 6) + 20,
		"b":   30,
		"c":   6,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestCoveredMergesIntervals(t *testing.T) {
	iv := [][2]int64{{50, 60}, {0, 10}, {5, 20}, {20, 25}, {70, 71}}
	if got := covered(iv); got != 25+10+1 {
		t.Errorf("covered = %d, want 36", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}

func TestNameAndUnitValidation(t *testing.T) {
	for _, n := range []string{"txn_per_s", "engine.restarts_per_commit", "a", "9lives", "x-y.z_1"} {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, n := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "a%", string(long)} {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	if !validName(string(long[:64])) {
		t.Error("a 64-character name was refused")
	}
	for _, u := range []string{"ms", "s", "1/s", "count", "%", "B", "us"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	for _, u := range []string{"", "m s", "µs", "abcdefghijklmnopq"} {
		if validUnit(u) {
			t.Errorf("validUnit(%q) = true", u)
		}
	}
}

func TestBuildResultRejectsBadValues(t *testing.T) {
	specs := []spec{{"txn_per_s", "1/s"}}
	if _, _, err := buildResult(specs, map[string]float64{}, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, _, err := buildResult(specs, map[string]float64{"txn_per_s": 0}, false); err == nil {
		t.Error("a zero end-to-end metric was accepted")
	}
	m, missing, err := buildResult(specs, map[string]float64{}, true)
	if err != nil || m["txn_per_s"].Value != 0 || len(missing) != 1 {
		t.Errorf("per-layer fill: %v %v %v", m, missing, err)
	}
	if _, _, err := buildResult([]spec{{"bad name", "s"}}, map[string]float64{"bad name": 1}, false); err == nil {
		t.Error("an invalid metric name was accepted")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// benchmark's own catalogue of workloads and metrics in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), benchmark %q (%s)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
}

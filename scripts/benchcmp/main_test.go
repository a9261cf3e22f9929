package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// base holds typical testbed-mixed end-to-end values.
var base = map[string]float64{
	"setup_s": 0.12, "req_per_s": 9000, "cpu_s": 1.5, "alloc_mb": 210, "peak_rss_mb": 48,
	"lc_phi": 0.91, "lc_p50_ms": 12.5, "lc_p99_ms": 81, "done_frac": 0.98,
}

// fixture returns 10 pairs whose change runs are copies of the parent
// runs. Pair k scales every value by 1+k/1000, a spread well inside each
// bound, so an A-vs-A comparison is exact and resolved.
func fixture() [2][]map[string]any {
	var runs [2][]map[string]any
	for k := 1; k <= 10; k++ {
		for s := range runs {
			ms := map[string]any{}
			for name, v := range base {
				ms[name] = map[string]float64{"value": v * (1 + float64(k)/1000)}
			}
			runs[s] = append(runs[s], map[string]any{"correct": true, "attempted": 1000, "failed": 5, "metrics": ms})
		}
	}
	return runs
}

func set(r map[string]any, metric string, v float64) {
	r["metrics"].(map[string]any)[metric] = map[string]float64{"value": v}
}

func get(r map[string]any, metric string) float64 {
	return r["metrics"].(map[string]any)[metric].(map[string]float64)["value"]
}

// compareRuns writes the runs as ab.sh would, in alternating order, and
// runs benchcmp over them with the repository's BENCHMARK.json.
func compareRuns(t *testing.T, runs [2][]map[string]any) (int, report) {
	t.Helper()
	dir := t.TempDir()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := range max(len(runs[0]), len(runs[1])) {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, s := range order {
			if i >= len(runs[s]) {
				continue
			}
			line := map[string]any{"workload": "testbed-mixed", "side": []string{"parent", "change"}[s],
				"rev": []string{"aaa", "bbb"}[s], "result": runs[s][i]}
			if err := enc.Encode(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	pairs, out := filepath.Join(dir, "pairs.ndjson"), filepath.Join(dir, "out.json")
	if err := os.WriteFile(pairs, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	code := run([]string{"../../BENCHMARK.json", pairs, out}, io.Discard)
	var rep report
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
	}
	return code, rep
}

func verdicts(rep report) map[string]string {
	v := map[string]string{}
	for _, m := range rep.Workloads[0].Metrics {
		v[m.Name] = m.Verdict
	}
	return v
}

func TestIdenticalPairsAllOK(t *testing.T) {
	code, rep := compareRuns(t, fixture())
	if code != 0 || len(rep.Failures) != 0 {
		t.Fatalf("exit %d, failures %v", code, rep.Failures)
	}
	if rep.Revs != [2]string{"aaa", "bbb"} {
		t.Fatalf("revs %v", rep.Revs)
	}
	w := rep.Workloads[0]
	if !w.SimIdentical || w.Pairs != 10 || len(w.Metrics) != len(base) {
		t.Fatalf("sim_identical %t, %d pairs, %d metrics", w.SimIdentical, w.Pairs, len(w.Metrics))
	}
	for _, m := range w.Metrics {
		if m.Verdict != "ok" || m.Ratio != 1 || m.Wins != 0 || m.Change.Median != m.Parent.Median {
			t.Errorf("%s: verdict %s, ratio %g, wins %d", m.Name, m.Verdict, m.Ratio, m.Wins)
		}
	}
}

// Each injection doctors the baseline's own copy, so the injected
// factor is the whole delta.
func TestInjectedRegressionsFail(t *testing.T) {
	for name, doctor := range map[string]func(r map[string]any){
		"req_per_s/10":     func(r map[string]any) { set(r, "req_per_s", get(r, "req_per_s")/10) },
		"alloc_mb*2":       func(r map[string]any) { set(r, "alloc_mb", get(r, "alloc_mb")*2) },
		"lc_p99_ms*1.2":    func(r map[string]any) { set(r, "lc_p99_ms", get(r, "lc_p99_ms")*1.2) },
		"alloc_mb*1.2":     func(r map[string]any) { set(r, "alloc_mb", get(r, "alloc_mb")*1.2) },
		"higher fail rate": func(r map[string]any) { r["failed"] = 6 },
	} {
		runs := fixture()
		for _, r := range runs[1] {
			doctor(r)
		}
		if code, rep := compareRuns(t, runs); code != 1 || len(rep.Failures) == 0 {
			t.Errorf("%s: exit %d, failures %v", name, code, rep.Failures)
		}
	}
	runs := fixture()
	runs[1][3]["correct"] = false
	if code, rep := compareRuns(t, runs); code != 1 || len(rep.Failures) != 1 {
		t.Errorf("correct:false: exit %d, failures %v", code, rep.Failures)
	}
	runs = fixture()
	for _, r := range runs[1] {
		set(r, "req_per_s", get(r, "req_per_s")/10)
	}
	if _, rep := compareRuns(t, runs); verdicts(rep)["req_per_s"] != "regressed" {
		t.Errorf("req_per_s/10: verdict %s", verdicts(rep)["req_per_s"])
	}
	// Worse, but within the 15% bound.
	runs = fixture()
	for _, r := range runs[1] {
		set(r, "alloc_mb", get(r, "alloc_mb")*1.1)
	}
	if code, rep := compareRuns(t, runs); code != 0 || verdicts(rep)["alloc_mb"] != "ok" {
		t.Errorf("alloc_mb*1.1: exit %d, verdict %s", code, verdicts(rep)["alloc_mb"])
	}
}

func TestSpreadAboveBoundUnresolved(t *testing.T) {
	runs := fixture()
	for k := range runs[0] {
		for _, r := range []map[string]any{runs[0][k], runs[1][k]} {
			set(r, "req_per_s", 9000*(1+0.2*float64(k+1)))
		}
	}
	code, rep := compareRuns(t, runs)
	if v := verdicts(rep)["req_per_s"]; code != 0 || v != "unresolved" {
		t.Fatalf("exit %d, req_per_s %s", code, v)
	}
	// Unless every change run beats every parent run.
	for _, r := range runs[1] {
		set(r, "req_per_s", 9000*4)
	}
	if _, rep := compareRuns(t, runs); verdicts(rep)["req_per_s"] != "gain" {
		t.Fatalf("all change runs better: req_per_s %s", verdicts(rep)["req_per_s"])
	}
}

func TestGainNeedsNineOfTenWinsPastTheIQR(t *testing.T) {
	for _, c := range []struct {
		wins   int
		factor float64
		want   string
	}{{10, 1.5, "gain"}, {9, 1.5, "gain"}, {8, 1.5, "ok"}, {10, 1.001, "ok"}} {
		runs := fixture()
		for i := range c.wins {
			set(runs[1][i], "req_per_s", get(runs[1][i], "req_per_s")*c.factor)
		}
		code, rep := compareRuns(t, runs)
		m := rep.Workloads[0].Metrics[1]
		if code != 0 || m.Name != "req_per_s" || m.Wins != c.wins || m.Verdict != c.want {
			t.Errorf("%d wins by x%g: exit %d, %s wins %d verdict %s, want %s",
				c.wins, c.factor, code, m.Name, m.Wins, m.Verdict, c.want)
		}
	}
}

func TestOneULPClearsSimIdentical(t *testing.T) {
	runs := fixture()
	set(runs[1][6], "lc_phi", math.Nextafter(get(runs[1][6], "lc_phi"), 1))
	code, rep := compareRuns(t, runs)
	if code != 0 || rep.Workloads[0].SimIdentical {
		t.Fatalf("exit %d, sim_identical %t", code, rep.Workloads[0].SimIdentical)
	}
}

// With fewer than 10 pairs no host metric is resolved, whatever it reads.
func TestFewPairsHostMetricsUnresolved(t *testing.T) {
	runs := fixture()
	runs[0], runs[1] = runs[0][:1], runs[1][:1]
	set(runs[1][0], "req_per_s", 1)
	code, rep := compareRuns(t, runs)
	for name, v := range verdicts(rep) {
		want := "unresolved"
		if name == "lc_phi" || name == "lc_p50_ms" || name == "lc_p99_ms" || name == "done_frac" {
			want = "ok"
		}
		if v != want {
			t.Errorf("%s: %s, want %s", name, v, want)
		}
	}
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestMalformedPairsRejected(t *testing.T) {
	runs := fixture()
	runs[1] = runs[1][:9]
	if code, _ := compareRuns(t, runs); code != 2 {
		t.Fatalf("a missing change run: exit %d, want 2", code)
	}
}

// Python: statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
// == [1.75, 3.5, 5.25], and statistics.median gives 3.5.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	s := summarize([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if s.Q1 != 1.75 || s.Median != 3.5 || s.Q3 != 5.25 || s.Min != 1 || s.Max != 9 {
		t.Fatalf("got %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Fatalf("one value: %+v", s)
	}
	// Odd length: quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
	if s := summarize([]float64{5, 4, 3, 2, 1}); s.Q1 != 1.5 || s.Median != 3 || s.Q3 != 4.5 {
		t.Fatalf("five values: %+v", s)
	}
}

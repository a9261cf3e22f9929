// Command benchcmp compares A/B benchmark pairs against the end-to-end
// bounds in BENCHMARK.json, writes the comparison as JSON, prints it as a
// table, and exits 1 when a metric regressed past its bound, a run
// reported correct:false, or the change failed more requests.
//
//	go run ./scripts/benchcmp BENCHMARK.json pairs.ndjson BENCH_<date>-<label>.json
//
// pairs.ndjson (from scripts/ab.sh) holds one perfbench result a line,
// {"workload":W,"side":"parent"|"change","rev":R,"result":{...}}; the
// i-th parent and i-th change run of a workload form pair i.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/metrics"
)

// pairsNeeded is the fewest pairs that resolve a host metric or a gain.
const pairsNeeded = 10

// simulated are the metrics a seed fixes on any host; the others are host
// measurements. A pure speed-up leaves them bit-equal (sim_identical).
var simulated = []string{"lc_phi", "lc_p50_ms", "lc_p99_ms", "done_frac"}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Input types: encoding/json matches keys to field names ignoring case.
type benchmark struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
}

// result is perfbench's last output line.
type result struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]struct{ Value float64 }
}

type runLine struct {
	Workload, Side, Rev string
	Result              result
}

// sideStats summarizes one side of a metric; Values are in pair order.
type sideStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

type metricCmp struct {
	metricSpec
	Parent  sideStats `json:"parent"`
	Change  sideStats `json:"change"`
	Ratio   float64   `json:"ratio"` // change/parent median; 0 when the parent's is 0
	Wins    int       `json:"wins"`
	Verdict string    `json:"verdict"`
}

type workloadCmp struct {
	Workload     string      `json:"workload"`
	Pairs        int         `json:"pairs"`
	SimIdentical bool        `json:"sim_identical"`
	FailedShare  [2]float64  `json:"failed_share"` // parent, change
	Metrics      []metricCmp `json:"metrics"`
}

type report struct {
	Revs      [2]string     `json:"revs"` // parent, change
	Failures  []string      `json:"failures"`
	Workloads []workloadCmp `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run compares the pairs, writes the report and returns the exit code.
func run(args []string, stdout io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp <BENCHMARK.json> <pairs.ndjson> <out.json>")
		return 2
	}
	rep, err := compare(args[0], args[1], args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 2
	}
	t := metrics.NewTable(fmt.Sprintf("A/B pairs: parent %.12s, change %.12s", rep.Revs[0], rep.Revs[1]),
		"workload", "metric", "parent [q1, q3]", "change [q1, q3]", "ratio", "wins", "verdict")
	for _, w := range rep.Workloads {
		fmt.Fprintf(stdout, "%s: %d pairs, sim_identical %t, failed share %.6g -> %.6g\n",
			w.Workload, w.Pairs, w.SimIdentical, w.FailedShare[0], w.FailedShare[1])
		for _, m := range w.Metrics {
			t.AddRow(w.Workload, m.Name, m.Parent.cell(), m.Change.cell(), fmt.Sprintf("%.3f", m.Ratio),
				fmt.Sprintf("%d/%d", m.Wins, w.Pairs), m.Verdict)
		}
	}
	fmt.Fprintf(stdout, "%sreport: %s\n", t, args[2])
	for _, f := range rep.Failures {
		fmt.Fprintln(stdout, "FAIL:", f)
	}
	return min(len(rep.Failures), 1)
}

func (s sideStats) cell() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3) }

// compare compares the workloads that ran and writes the report.
func compare(benchPath, pairsPath, outPath string) (*report, error) {
	var bench benchmark
	data, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", benchPath, err)
	}
	if data, err = os.ReadFile(pairsPath); err != nil {
		return nil, err
	}
	rep := &report{Failures: []string{}}
	runs := map[string][2][]result{}
	dec := json.NewDecoder(bytes.NewReader(data))
	for n := 1; dec.More(); n++ {
		var l runLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("%s: run %d: %w", pairsPath, n, err)
		}
		side := slices.Index([]string{"parent", "change"}, l.Side)
		if side < 0 || !slices.Contains(bench.Workloads, struct{ Name string }{l.Workload}) {
			return nil, fmt.Errorf("%s: run %d: unknown side %q or workload %q", pairsPath, n, l.Side, l.Workload)
		}
		r := runs[l.Workload]
		r[side] = append(r[side], l.Result)
		runs[l.Workload] = r
		rep.Revs[side] = l.Rev
	}
	for _, w := range bench.Workloads {
		if r, ok := runs[w.Name]; ok && len(r[0]) != len(r[1]) {
			return nil, fmt.Errorf("%s has %d parent and %d change runs", w.Name, len(r[0]), len(r[1]))
		} else if ok {
			rep.Workloads = append(rep.Workloads, compareWorkload(w.Name, bench.EndToEnd, r, &rep.Failures))
		}
	}
	if len(rep.Workloads) == 0 {
		return nil, fmt.Errorf("%s holds no runs", pairsPath)
	}
	if data, err = json.MarshalIndent(rep, "", "  "); err == nil {
		err = os.WriteFile(outPath, append(data, '\n'), 0o644)
	}
	return rep, err
}

// compareWorkload compares one workload and appends why it fails to failures.
func compareWorkload(name string, specs []metricSpec, runs [2][]result, failures *[]string) workloadCmp {
	w := workloadCmp{Workload: name, Pairs: len(runs[0]), SimIdentical: true}
	for s, rs := range runs {
		var attempted, failed int64
		for i, r := range rs {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
			if !r.Correct {
				*failures = append(*failures, fmt.Sprintf("%s pair %d: the %s run reported correct:false", name, i+1, []string{"parent", "change"}[s]))
			}
			for _, m := range simulated {
				w.SimIdentical = w.SimIdentical && math.Float64bits(r.Metrics[m].Value) == math.Float64bits(runs[1-s][i].Metrics[m].Value)
			}
		}
		w.FailedShare[s] = float64(failed) / float64(max(attempted, 1))
	}
	if w.FailedShare[1] > w.FailedShare[0] {
		*failures = append(*failures, fmt.Sprintf("%s: failed share rose from %.6g to %.6g", name, w.FailedShare[0], w.FailedShare[1]))
	}
	for _, spec := range specs {
		m := metricCmp{metricSpec: spec}
		sign := map[string]float64{"higher": 1, "lower": -1}[spec.Better]
		var pv, cv []float64
		for i := range w.Pairs {
			pv = append(pv, runs[0][i].Metrics[spec.Name].Value)
			cv = append(cv, runs[1][i].Metrics[spec.Name].Value)
			if (cv[i]-pv[i])*sign > 0 {
				m.Wins++
			}
		}
		m.Parent, m.Change = summarize(pv), summarize(cv)
		if m.Parent.Median != 0 {
			m.Ratio = m.Change.Median / m.Parent.Median
		}
		if m.Verdict = verdict(m, sign, w.Pairs); m.Verdict == "regressed" {
			*failures = append(*failures, fmt.Sprintf("%s %s regressed: median %.6g -> %.6g, bound %g",
				name, spec.Name, m.Parent.Median, m.Change.Median, spec.Bound))
		}
		w.Metrics = append(w.Metrics, m)
	}
	return w
}

// verdict returns the first rule that matches: unresolved for a host
// metric over fewer than pairsNeeded pairs; regressed when the change
// median is worse by more than bound × the parent median; unresolved when
// the parent's IQR exceeds that, unless every change run beats every
// parent run; gain when the change wins ≥ 9/10 of at least pairsNeeded
// pairs (ties count for neither) and its median is better by more than
// the parent's IQR; ok otherwise.
func verdict(m metricCmp, sign float64, pairs int) string {
	p, c := m.Parent, m.Change
	better, iqr, spread := (c.Median-p.Median)*sign, p.Q3-p.Q1, m.Bound*math.Abs(p.Median)
	beatsAll := sign > 0 && c.Min > p.Max || sign < 0 && c.Max < p.Min
	switch {
	case pairs < pairsNeeded && !slices.Contains(simulated, m.Name):
		return "unresolved"
	case -better > spread:
		return "regressed"
	case iqr > spread && !beatsAll:
		return "unresolved"
	case pairs >= pairsNeeded && 10*m.Wins >= 9*pairs && better > iqr:
		return "gain"
	}
	return "ok"
}

// summarize takes quartiles as Python's statistics.quantiles(v, n=4),
// which perfbench/NOTES.md used to fix the bounds; its middle cut is
// statistics.median. One value is its own quartiles.
func summarize(v []float64) sideStats {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return sideStats{Median: cut(2), Q1: cut(1), Q3: cut(3), Min: s[0], Max: s[n-1], Values: v}
}

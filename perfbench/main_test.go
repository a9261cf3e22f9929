package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tiny runs every simulation in-process at 1/20 of the workload horizon.
func tiny(w workload, seed int64, traced bool) (*runResult, error) {
	return runOnce(w, seed, traced, 0.05), nil
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := contract(t)
	for _, w := range workloads {
		for _, traceMode := range []bool{false, true} {
			var out bytes.Buffer
			res, err := measure(&out, w, 7, 0, traceMode, tiny)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w.name, traceMode, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if traceMode {
				want = perLayer
			}
			// The result is consumed as JSON: check it there.
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Fatalf("%s: result %s lacks a key", w.name, raw)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", w.name, traceMode, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok || m.Value == nil {
					t.Errorf("%s trace=%t: metric %s missing", w.name, traceMode, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s: metric %s not printed", w.name, name)
				}
			}
		}
	}
}

func TestLedgerRejectsLostAndDuplicatedOutcomes(t *testing.T) {
	reqs := make([]trace.Request, 5)
	for i := range reqs {
		reqs[i].ID = int64(i)
	}
	cases := []struct {
		name     string
		outcomes []int64
		bad      int64
		msg      string
	}{
		{"exact", []int64{4, 0, 2, 1, 3}, 0, ""},
		{"lost", []int64{0, 1, 2, 4}, 1, "1 lost"},
		{"duplicated", []int64{0, 1, 2, 3, 4, 2}, 1, "1 duplicated"},
		{"never injected", []int64{0, 1, 2, 3, 4, 99}, 1, "1 never injected"},
		{"lost and duplicated", []int64{0, 0, 1, 2}, 3, "2 lost, 1 duplicated"},
	}
	for _, c := range cases {
		l := newLedger(reqs)
		for _, id := range c.outcomes {
			l.note(id, true)
		}
		bad, err := l.verify()
		if bad != c.bad || (err == nil) != (c.msg == "") || (err != nil && !strings.Contains(err.Error(), c.msg)) {
			t.Errorf("%s: verify() = %d, %v; want %d, %q", c.name, bad, err, c.bad, c.msg)
		}
	}
}

func TestGateRejectsDivergentRuns(t *testing.T) {
	w, err := findWorkload("testbed-mixed")
	if err != nil {
		t.Fatal(err)
	}
	run := func(traced bool, sim simResult) *runResult {
		return &runResult{Traced: traced, RunS: 1, Injected: 10, Resolved: 10, Sim: sim}
	}
	same := simResult{LCPhi: 0.9, Events: 100}
	if res := aggregate(&bytes.Buffer{}, w, []*runResult{run(false, same), run(true, same)}); !res.Correct {
		t.Fatal("identical runs rejected")
	}
	moved := same
	moved.Events++
	if res := aggregate(&bytes.Buffer{}, w, []*runResult{run(false, same), run(true, moved)}); res.Correct {
		t.Error("a traced run that simulated differently passed the gate")
	}
	short := run(false, same)
	short.Resolved--
	if res := aggregate(&bytes.Buffer{}, w, []*runResult{short}); res.Correct {
		t.Error("a run with an unresolved request passed the gate")
	}
}

func TestTailRank(t *testing.T) {
	for n, want := range map[int]int{0: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 5000: 99} {
		if got := tailRank(n); got != want {
			t.Errorf("tailRank(%d) = %d, want %d", n, got, want)
		}
	}
	var c callTimer
	for i := 1; i <= 100; i++ {
		c.ns = append(c.ns, float64(i)*float64(time.Millisecond))
	}
	if p50, tail, rank := c.quantiles(time.Millisecond); p50 != 50 || tail != 90 || rank != 90 {
		t.Errorf("quantiles = %v, %v, p%d; want 50, 90, p90", p50, tail, rank)
	}
}

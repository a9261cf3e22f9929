// Command perfbench is the repository's end-to-end benchmark: it runs the
// core.System simulator on one named workload, checks that the outputs
// are correct, and prints every metric by name and unit, ending with one
// JSON line:
//
//	bash perfbench/run.sh --workload fleet-lc --seed 1 --seconds 20 --trace 0
//
// Every measured simulation runs in a fresh child process, one at a time,
// so peak RSS and the GC pacer's state belong to that run alone. A seed
// expands into as many traces as --seconds fit at the workload's nominal
// run cost, one run each, and each metric is the median over the runs
// (LC latency percentiles pool the runs' samples). --trace 0 reports the
// end-to-end metrics; --trace 1 pairs untraced runs with traced ones,
// which time every layer through the probes in probes.go, and reports
// the per-layer metrics. NOTES.md explains the workloads and bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported with
// --trace 0. Host times are wall clock unless named cpu_s; lc_* and
// done_frac are simulated outcomes, identical for a seed on any host.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // fleet build + trace generation + core.New + Inject
	{"req_per_s", "1/s"},   // resolved requests per wall second of Run
	{"cpu_s", "s"},         // process user+sys CPU during Run
	{"alloc_mb", "MiB"},    // heap bytes allocated over setup and Run
	{"peak_rss_mb", "MiB"}, // the run process's peak resident set
	{"lc_phi", "ratio"},    // QoS satisfaction rate
	{"lc_p50_ms", "ms"},    // simulated LC latency
	{"lc_p99_ms", "ms"},
	{"done_frac", "ratio"}, // injected requests that completed (1 − failure share)
}

// perLayer are the traced run's metrics, reported with --trace 1.
var perLayer = []metricDef{
	{"topo.build_s", "s"}, {"trace.gen_s", "s"}, {"trace.requests", "count"},
	{"core.new_s", "s"}, {"core.inject_s", "s"},
	{"sim.events", "count"}, {"sim.us_per_event", "us"},
	{"sim.be_done", "count"}, {"sim.failed_frac", "ratio"},
	{"dcgbe.decisions", "count"}, {"dcgbe.cache_hit_ratio", "ratio"},
	{"dcgbe.infer.calls", "count"}, {"dcgbe.infer.s", "s"},
	{"dcgbe.infer.ms_p50", "ms"}, {"dcgbe.infer.ms_tail", "ms"},
	{"dcgbe.train.calls", "count"}, {"dcgbe.train.s", "s"},
	{"dcgbe.train.ms_p50", "ms"}, {"dcgbe.train.ms_tail", "ms"}, {"dcgbe.train.batch", "count"},
	{"dsslc.calls", "count"}, {"dsslc.s", "s"}, {"dsslc.ms_p50", "ms"}, {"dsslc.ms_tail", "ms"},
	{"dsslc.reqs", "count"}, {"dsslc.us_per_req", "us"}, {"dsslc.assigned_ratio", "ratio"},
	{"flow.graph_build_s", "s"}, {"flow.mcnf_s", "s"}, {"flow.dijkstra_s", "s"},
	{"flow.solves", "count"}, {"flow.warm_hit_ratio", "ratio"},
	{"shard.solves", "count"}, {"shard.warm_hit_ratio", "ratio"}, {"shard.overflow", "count"},
	{"hrm.admit.calls", "count"}, {"hrm.admit.s", "s"},
	{"hrm.admit.us_p50", "us"}, {"hrm.admit.us_tail", "us"}, {"hrm.admit_ratio", "ratio"},
	{"engine.dispatch_self_s", "s"}, {"engine.collect_s", "s"},
	{"go.gc_cycles", "count"}, {"go.gc_cpu_s", "s"}, {"go.alloc_objects", "count"},
	{"tracing_overhead", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runner runs one simulation of w on a trace seed and returns its
// measurements.
type runner func(w workload, seed int64, traced bool) (*runResult, error)

func main() {
	var (
		name    = flag.String("workload", "", "workload name (testbed-mixed, fleet-be, fleet-lc, fleet-lc-shard4)")
		seed    = flag.Int64("seed", 1, "seed the workload's request traces are generated from")
		seconds = flag.Float64("seconds", 20, "measurement time; sets how many runs (traces) a seed expands into")
		traceOn = flag.Int("trace", 0, "1 = alternate untraced and traced runs and report the per-layer metrics")
		child   = flag.Bool("child", false, "run one simulation in this process and print its measurements (internal)")
		traced  = flag.Bool("traced", false, "with -child: install the layer probes")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child {
		if err := json.NewEncoder(os.Stdout).Encode(runOnce(w, *seed, *traced, 1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := measure(os.Stdout, w, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, spawn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// spawn runs one simulation in a fresh child process of this binary and
// waits for it to exit.
func spawn(w workload, seed int64, traced bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-traced="+strconv.FormatBool(traced))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("run child: %w", err)
	}
	var r runResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("read child result: %w", err)
	}
	return &r, nil
}

// measure makes the runs of w for seed, checks them and aggregates the
// medians; progress lines go to out. Run i replays the trace of
// subSeed(seed, i), so a run covers as many distinct traces as budget
// allows at the workload's nominal run cost. Trace mode pairs an untraced
// and a traced run on each trace and makes half as many pairs.
func measure(out io.Writer, w workload, seed int64, budget time.Duration, traceMode bool, run runner) (*result, error) {
	n := max(1, min(999, int(math.Round(float64(budget)/float64(w.runCost)))))
	modes := []bool{false}
	if traceMode {
		n = max(1, n/2)
		modes = []bool{false, true}
	}
	var runs []*runResult
	for i := 0; i < n; i++ {
		for _, traced := range modes {
			r, err := run(w, subSeed(seed, i), traced)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
			fmt.Fprintf(out, "run %d seed %d traced=%t: setup %.4fs run %.3fs %d req %.1f req/s cpu %.3fs gc %.0f cycles alloc %.1f MiB rss %.1f MiB\n",
				len(runs), r.Seed, r.Traced, r.SetupS, r.RunS, r.Resolved, float64(r.Resolved)/r.RunS,
				r.CPUS, r.GCCycles, r.AllocMB, r.PeakRSSMB)
		}
	}
	return aggregate(out, w, runs), nil
}

// subSeed is the trace seed of run i of a benchmark seed (i < 1000).
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// aggregate applies the correctness gate and reduces the runs to the
// reported metrics.
func aggregate(out io.Writer, w workload, runs []*runResult) *result {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(out, "INCORRECT: "+format+"\n", args...)
	}
	sims := map[int64]simResult{}
	var plain, traced []*runResult
	for i, r := range runs {
		res.Attempted += r.Injected
		res.Failed += r.Violations
		if r.Conservation != "" {
			fail("run %d: %s", i+1, r.Conservation)
		}
		if r.Resolved != r.Injected {
			fail("run %d: %d of %d injected requests resolved", i+1, r.Resolved, r.Injected)
		}
		if prev, ok := sims[r.Seed]; ok && prev != r.Sim {
			fail("run %d (traced=%t) simulated %+v on seed %d, an earlier run %+v", i+1, r.Traced, r.Sim, r.Seed, prev)
		}
		sims[r.Seed] = r.Sim
		if r.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	pick := func(rs []*runResult, f func(*runResult) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	// LC latency percentiles are taken over every untraced run's samples.
	var lat []float64
	for _, r := range plain {
		lat = append(lat, r.LCLatMs...)
	}
	sort.Float64s(lat)
	fmt.Fprintf(out, "workload %s: %d untraced and %d traced runs; %d LC latency samples (lc_p99_ms needs 1000); median be_done %.0f, failed_frac %.6f\n",
		w.name, len(plain), len(traced), len(lat),
		pick(plain, func(r *runResult) float64 { return float64(r.Sim.BEDone) }),
		pick(plain, func(r *runResult) float64 { return r.Sim.FailedFrac }))

	values := map[string]float64{}
	var defs []metricDef
	if len(traced) == 0 {
		defs = endToEnd
		values["setup_s"] = pick(plain, func(r *runResult) float64 { return r.SetupS })
		values["req_per_s"] = pick(plain, func(r *runResult) float64 { return float64(r.Resolved) / r.RunS })
		values["cpu_s"] = pick(plain, func(r *runResult) float64 { return r.CPUS })
		values["alloc_mb"] = pick(plain, func(r *runResult) float64 { return r.AllocMB })
		values["peak_rss_mb"] = pick(plain, func(r *runResult) float64 { return r.PeakRSSMB })
		values["lc_phi"] = pick(plain, func(r *runResult) float64 { return r.Sim.LCPhi })
		values["lc_p50_ms"] = metrics.SortedPercentile(lat, 50)
		values["lc_p99_ms"] = metrics.SortedPercentile(lat, 99)
		values["done_frac"] = pick(plain, func(r *runResult) float64 { return 1 - r.Sim.FailedFrac })
	} else {
		defs = perLayer
		for _, d := range perLayer {
			name := d.name
			values[name] = pick(traced, func(r *runResult) float64 { return r.Layers[name] })
		}
		wall := pick(traced, func(r *runResult) float64 { return r.RunS })
		values["tracing_overhead"] = wall/pick(plain, func(r *runResult) float64 { return r.RunS }) - 1
		for name, rank := range traced[0].Tails {
			fmt.Fprintf(out, "%s is p%d\n", name, rank)
		}
		fmt.Fprintf(out, "purpose: %s\n", w.confirm(evidence{
			L:    values,
			wall: wall,
			cpu:  pick(traced, func(r *runResult) float64 { return r.CPUS }),
			phi:  pick(traced, func(r *runResult) float64 { return r.Sim.LCPhi }),
		}))
	}
	tw := bufio.NewWriter(out)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(tw, "%-24s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
	tw.Flush()
	return res
}

// median of v (the mean of the middle two for even lengths).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

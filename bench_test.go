// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7). Each BenchmarkFigureNN runs the corresponding
// experiment end-to-end on the simulated testbed and reports the key
// reproduced metrics through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints both the runtime cost and the paper-shape numbers. The quick
// configuration is used so the full suite stays minutes-scale; run
// cmd/tango-bench -full for the paper-scale version.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/hrm"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// benchCfg is a trimmed quick configuration so `go test -bench=.`
// finishes in minutes.
func benchCfg() experiments.Config {
	return experiments.Config{
		Seed: 1, Duration: 6 * time.Second, Drain: 4 * time.Second,
		LCRate: 40, BERate: 15, VirtualClusters: 3,
	}
}

func reportValues(b *testing.B, r *experiments.Result, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := r.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
	if testing.Verbose() {
		b.Log("\n" + r.String())
	}
}

// BenchmarkFigure01Measurement — Figure 1: LC-only deployment shows low
// utilization with ~300 ms-class latencies.
func BenchmarkFigure01Measurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchCfg())
		reportValues(b, r, "mean_util", "mean_latency_ms")
	}
}

// BenchmarkFigure09HRM — Figure 9: HRM vs native K8s utilization under
// P1/P2/P3.
func BenchmarkFigure09HRM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchCfg())
		reportValues(b, r, "P3_K8s+HRM_util", "P3_K8s-native_util")
	}
}

// BenchmarkDVPAScalingOp — §7.1: one D-VPA resize vs the native VPA's
// delete-and-rebuild (~100x).
func BenchmarkDVPAScalingOp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DVPAMicro(benchCfg())
		reportValues(b, r, "dvpa_ms", "native_ms", "ratio")
	}
}

// BenchmarkFigure10ReAssurance — Figure 10: QoS re-assurance on/off.
func BenchmarkFigure10ReAssurance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(benchCfg())
		reportValues(b, r, "P1_qos_with", "P1_qos_without")
	}
}

// BenchmarkFigure11DSSLC — Figure 11(a,b): LC scheduling algorithms.
func BenchmarkFigure11DSSLC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11ab(benchCfg())
		reportValues(b, r, "DSS-LC_qos", "k8s-native_qos", "DSS-LC_abandoned")
	}
}

// BenchmarkDSSLCDecision500 — §7.2: DSS-LC decision latency at 500 nodes
// (paper: 1.99 ms).
func BenchmarkDSSLCDecision500(b *testing.B) {
	benchDecision(b, 500)
}

// BenchmarkDSSLCDecision1000 — §7.2: DSS-LC decision latency at 1000
// nodes (paper: 3.98 ms).
func BenchmarkDSSLCDecision1000(b *testing.B) {
	benchDecision(b, 1000)
}

func benchDecision(b *testing.B, nodes int) {
	var ms float64
	for i := 0; i < b.N; i++ {
		r := experiments.DecisionTime(benchCfg(), func(f func()) time.Duration {
			start := time.Now()
			f()
			return time.Since(start)
		})
		ms = r.Values["decision_ms_"+itoa(nodes)]
	}
	b.ReportMetric(ms, "decision_ms")
}

func itoa(n int) string {
	if n == 500 {
		return "500"
	}
	return "1000"
}

// BenchmarkFigure11DCGBE — Figure 11(c): BE scheduling algorithms.
func BenchmarkFigure11DCGBE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11c(benchCfg())
		reportValues(b, r, "DCG-BE_tput", "GNN-SAC_tput", "k8s-native_tput")
	}
}

// BenchmarkFigure11GNN — Figure 11(d): GNN structure ablation.
func BenchmarkFigure11GNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11d(benchCfg())
		reportValues(b, r, "GraphSAGE-A2C", "GCN-A2C", "GAT-A2C", "Native-A2C")
	}
}

// BenchmarkFigure12Pairing — Figure 12: the 4x4 algorithm pairing matrix.
func BenchmarkFigure12Pairing(b *testing.B) {
	cfg := benchCfg()
	cfg.Duration = 4 * time.Second // 16 systems per iteration
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(cfg)
		reportValues(b, r, "DSS-LC+DCG-BE_qos", "DSS-LC+DCG-BE_tput", "k8s-native+k8s-native_qos")
	}
}

// BenchmarkFigure13LargeScale — Figure 13: Tango vs CERES vs DSACO on
// the dual-space hybrid deployment.
func BenchmarkFigure13LargeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(benchCfg())
		reportValues(b, r, "Tango_util", "CERES_util", "Tango_qos", "DSACO_qos", "Tango_tput", "CERES_tput")
	}
}

// BenchmarkExtensionFailover — extension experiment: mid-run worker
// failures with re-dispatch.
func BenchmarkExtensionFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Failover(benchCfg())
		reportValues(b, r, "qos_clean", "qos_failures", "qos_trough")
	}
}

// BenchmarkAblationMasking — DESIGN.md ablation: DCG-BE's policy context
// filtering on/off.
func BenchmarkAblationMasking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationMasking(benchCfg())
		reportValues(b, r, "tput_masking_on", "tput_masking_off")
	}
}

// BenchmarkAblationReward — DESIGN.md ablation: r_short + η·r_long vs
// short-term-only reward.
func BenchmarkAblationReward(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationReward(benchCfg())
		reportValues(b, r, "tput_eta_1", "tput_eta_0")
	}
}

// BenchmarkAblationPreemption — DESIGN.md ablation: §4.1 preemption
// on/off.
func BenchmarkAblationPreemption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPreemption(benchCfg())
		reportValues(b, r, "qos_preempt_on", "qos_preempt_off")
	}
}

// ---- tracing overhead ----
//
// The three BenchmarkEngineTrace* variants run the identical engine
// workload with tracing disabled (nil tracer), enabled into the
// discarding NullSink, and enabled into a RingSink. Comparing TraceOff
// and TraceNull bounds the cost the obs hooks add to the hot path; the
// contract is ≤2% time and zero extra allocations per op.

// benchEngineTrace runs ~500 mixed requests per iteration through a bare
// engine on the physical testbed, dispatched round-robin over the
// workers. The tracer is built once, outside the timed loop, and reads
// the clock of whichever simulator is currently running, so per-op allocs
// measure only the emission path.
func benchEngineTrace(b *testing.B, sink obs.Sink) {
	tp := topo.PhysicalTestbed()
	cat := trace.DefaultCatalog()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, 4*time.Second, 1)
	gen.LCRatePerSec = 90
	gen.BERatePerSec = 35
	reqs := trace.Generate(gen)

	var cur *sim.Simulator
	var tr *obs.Tracer
	if sink != nil {
		tr = obs.NewTracer(func() time.Duration { return cur.Now() }, sink)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		cur = s
		eng := engine.New(engine.Config{
			Sim: s, Topo: tp, Catalog: cat, Policy: hrm.NewRegulations(),
			ScaleLatency: 23 * time.Millisecond, LCAbandonFactor: 3,
			Tracer: tr,
		})
		workers := eng.Nodes()
		for j, r := range reqs {
			req := eng.NewRequest(r)
			w := workers[j%len(workers)]
			s.Schedule(r.Arrival, func() { eng.Dispatch(req, w.ID) })
		}
		s.Run()
		if eng.Completed == 0 {
			b.Fatal("workload completed nothing")
		}
	}
}

func BenchmarkEngineTraceOff(b *testing.B)  { benchEngineTrace(b, nil) }
func BenchmarkEngineTraceNull(b *testing.B) { benchEngineTrace(b, obs.NullSink{}) }
func BenchmarkEngineTraceRing(b *testing.B) { benchEngineTrace(b, obs.NewRingSink(4096)) }

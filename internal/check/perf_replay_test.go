package check_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Perf instrumentation measures the host, not the simulation, so the
// replay-digest contract must be blind to it: a profiled run and an
// unprofiled run of the same scenario+seed produce identical stream AND
// report digests, and two profiled runs agree with each other.

func perfReplayRun(t *testing.T, seed int64, profiled bool) (stream, report string, prof *perf.Profiler) {
	t.Helper()
	tp := topo.PhysicalTestbed()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, replayHorizon, seed)
	gen.LCRatePerSec = 40
	gen.BERatePerSec = 15
	reqs := trace.Generate(gen)

	opts := core.Tango(tp, seed)
	ds := obs.NewDigestSink(nil)
	opts.TraceSink = ds
	opts.TraceTag = "replay"
	if profiled {
		prof = perf.New()
		opts.Profiler = prof
	}
	sys := core.New(opts)
	sys.Inject(reqs)
	sys.Run(replayHorizon + 2*time.Second)
	rep := sys.Report("tango", 0)
	if profiled {
		if rep.Perf == nil {
			t.Fatal("profiled run report lacks the perf section")
		}
		if len(rep.Perf.Runtime) == 0 {
			t.Fatal("profiled run report lacks runtime samples")
		}
	} else if rep.Perf != nil {
		t.Fatal("unprofiled run report has a perf section")
	}
	return ds.Sum(), obs.ReportDigest(rep), prof
}

func TestPerfInstrumentationPreservesReplayDigests(t *testing.T) {
	sOff, rOff, _ := perfReplayRun(t, 42, false)
	sOn, rOn, prof := perfReplayRun(t, 42, true)
	sOn2, rOn2, _ := perfReplayRun(t, 42, true)

	if sOn != sOff {
		t.Fatalf("profiling changed the stream digest:\n  off %s\n  on  %s", sOff, sOn)
	}
	if rOn != rOff {
		t.Fatalf("profiling changed the report digest:\n  off %s\n  on  %s", rOff, rOn)
	}
	if sOn != sOn2 || rOn != rOn2 {
		t.Fatal("two profiled runs disagree with each other")
	}
	// The profiler actually measured the run it rode along on.
	if prof.Stats(perf.PhaseEngineDispatch).Calls == 0 {
		t.Fatal("profiled run recorded no dispatch rounds")
	}
	if prof.Stats(perf.PhaseSolveMCNF).Calls == 0 {
		t.Fatal("profiled run recorded no MCNF solves")
	}
}

// The profiled run's report must surface solver, engine and cgroup
// phase rows plus perf_* registry series, and every perf-derived key
// must wear the digest-exclusion prefix.
func TestPerfReportContents(t *testing.T) {
	tp := topo.PhysicalTestbed()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, 4*time.Second, 7)
	reqs := trace.Generate(gen)
	opts := core.Tango(tp, 7)
	opts.TraceSink = obs.NullSink{}
	opts.Profiler = perf.New()
	sys := core.New(opts)
	sys.Inject(reqs)
	sys.Run(5 * time.Second)
	rep := sys.Report("tango", 0)

	if rep.Perf == nil {
		t.Fatal("no perf section")
	}
	phases := map[string]obs.PhasePerf{}
	for _, p := range rep.Perf.Phases {
		phases[p.Phase] = p
	}
	// All subsystems present.
	for _, want := range []string{"solve/mcnf", "solve/dijkstra", "engine/dispatch",
		"engine/admission", "engine/collect"} {
		if _, ok := phases[want]; !ok {
			t.Fatalf("perf section missing phase %q", want)
		}
	}
	for _, busy := range []string{"solve/mcnf", "engine/dispatch", "engine/admission", "engine/collect"} {
		if phases[busy].Calls == 0 || phases[busy].TotalNs <= 0 {
			t.Fatalf("phase %q not measured: %+v", busy, phases[busy])
		}
	}
	if phases["engine/dispatch"].AllocBytes == 0 {
		t.Fatal("dispatch phase recorded no allocations")
	}
	for k := range rep.Perf.Runtime {
		if !strings.HasPrefix(k, obs.PerfMetricPrefix) {
			t.Fatalf("runtime key %q lacks the %q prefix", k, obs.PerfMetricPrefix)
		}
	}
	if _, ok := rep.Series[obs.PerfMetricPrefix+"goroutines"]; !ok {
		t.Fatal("perf_goroutines series missing from report")
	}
}

package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dcgbe"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/hrm"
	"repro/internal/perf"
	"repro/internal/shard"
	"repro/internal/topo"
	"repro/internal/trace"
)

// simResult holds the simulated outcomes. They are deterministic per
// workload and seed: every run of one seed, traced or not, must report
// them bit-identical.
type simResult struct {
	LCPhi      float64 `json:"lc_phi"`
	LCP50Ms    float64 `json:"lc_p50_ms"`
	LCP99Ms    float64 `json:"lc_p99_ms"`
	LCSamples  int64   `json:"lc_samples"`
	BEDone     int64   `json:"be_done"`
	FailedFrac float64 `json:"failed_frac"`
	Events     uint64  `json:"sim_events"`
}

// runResult is what one simulation run, in its own process, reports.
type runResult struct {
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	GCCycles  float64 `json:"gc_cycles"`
	Injected  int64   `json:"injected"`
	Resolved  int64   `json:"resolved"`
	// Violations counts requests that did not resolve exactly once;
	// Conservation describes them.
	Violations   int64     `json:"violations"`
	Conservation string    `json:"conservation,omitempty"`
	Sim          simResult `json:"sim"`
	// LCLatMs are the completed LC requests' latencies, which the parent
	// pools across runs for lc_p50_ms and lc_p99_ms.
	LCLatMs []float64 `json:"lc_lat_ms"`
	// Layers holds the per-layer metrics (traced runs only) and Tails
	// the percentile rank behind each *.ms_tail metric.
	Layers map[string]float64 `json:"layers,omitempty"`
	Tails  map[string]int     `json:"tails,omitempty"`
}

// probes are the layer wrappers a traced run installs.
type probes struct {
	prof   *perf.Profiler
	policy *policyProbe
	agent  *agentProbe
	be     *dcgbe.Scheduler
	lc     *lcProbe         // global DSS-LC workloads
	shard  *shard.Scheduler // sharded workloads
}

// install wires the probes into o through its public hooks, building
// each component exactly as core.New builds its default.
func (p *probes) install(o *core.Options) {
	p.prof = perf.New()
	o.Profiler = p.prof
	p.policy = &policyProbe{inner: hrm.NewRegulations()}
	o.Policy = p.policy
	o.MakeBE = func(e *engine.Engine, seed int64) any {
		p.be = dcgbe.New(e, seed)
		p.agent = &agentProbe{inner: p.be.Agent}
		p.be.Agent = p.agent
		return p.be
	}
	if o.LCShards > 1 {
		// core dispatches sharded rounds only to a *shard.Scheduler and
		// wires its profiler itself, so it is captured, not wrapped.
		o.MakeLC = func(e *engine.Engine, seed int64) any {
			p.shard = shard.New(e, seed, o.LCShards, o.LCShardWorkers)
			return p.shard
		}
		return
	}
	o.MakeLC = func(e *engine.Engine, seed int64) any {
		s := dsslc.New(e, seed)
		s.Prof = p.prof
		p.lc = &lcProbe{inner: s}
		return p.lc
	}
}

// runtimeCounters reads the process-wide Go runtime counters the
// benchmark reports.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles, gcCPUS float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
		gcCPUS:       s[3].Value.Float64(),
	}
}

// rusage returns the process's user+sys CPU seconds and peak RSS in MiB.
func rusage() (cpuS, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad pointer or flag fails RUSAGE_SELF
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Maxrss is KiB on Linux
}

// setupReps is how many times a run sets the workload up. Only the first
// system runs; the others are built after Run, so they leave the run's
// heap, GC and RSS figures alone, and setup_s is the median of all.
const setupReps = 9

// instance is one set-up system with the handles the run needs.
type instance struct {
	sys  *core.System
	reqs []trace.Request
	led  *ledger
	lat  []float64 // completed LC latencies, ms
	pr   probes
	// phases are the set-up steps' wall seconds: fleet build, trace
	// generation, core.New and Inject.
	phases [4]float64
}

// setUp builds the workload's fleet, generates its trace from seed and
// assembles and loads the system, timing each step.
func setUp(w workload, seed int64, horizon time.Duration, traced bool) *instance {
	in := &instance{}
	t0 := time.Now()
	tp := w.fleet()
	t1 := time.Now()
	in.reqs = generate(tp, w, horizon, seed)
	t2 := time.Now()
	opts := core.Tango(tp, seed)
	opts.LCShards = w.shards
	opts.LCShardWorkers = runtime.GOMAXPROCS(0)
	opts.OnOutcome = func(o engine.Outcome) {
		in.led.note(o.Req.ID, o.Completed)
		if o.Completed && o.Req.Class == trace.LC {
			in.lat = append(in.lat, float64(o.Latency)/float64(time.Millisecond))
		}
	}
	if traced {
		in.pr.install(&opts)
	}
	in.sys = core.New(opts)
	t3 := time.Now()
	in.sys.Inject(in.reqs)
	t4 := time.Now()
	in.phases = [4]float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()}
	in.led = newLedger(in.reqs) // the benchmark's own bookkeeping, not set-up
	return in
}

// runOnce sets the workload up on seed, runs the simulator over it and
// measures the run. scale shrinks the horizon (tests only).
func runOnce(w workload, seed int64, traced bool, scale float64) *runResult {
	horizon := time.Duration(float64(w.horizon) * scale)
	drain := time.Duration(float64(w.drain) * scale)
	rt0 := readRuntime()
	in := setUp(w, seed, horizon, traced)
	cpu0, _ := rusage()
	start := time.Now()
	in.sys.Run(horizon + drain)
	runS := time.Since(start).Seconds()
	cpu1, peakMB := rusage()
	rt1 := readRuntime()

	var phases [4][]float64
	var totals []float64
	for i := 0; i < setupReps; i++ {
		p := in.phases
		if i > 0 {
			p = setUp(w, seed, horizon, traced).phases
		}
		for j, v := range p {
			phases[j] = append(phases[j], v)
		}
		totals = append(totals, p[0]+p[1]+p[2]+p[3])
	}

	m := in.sys.Metrics
	tails := m.TailPercentiles()
	r := &runResult{
		Seed:      seed,
		Traced:    traced,
		SetupS:    median(totals),
		RunS:      runS,
		CPUS:      cpu1 - cpu0,
		AllocMB:   (rt1.allocBytes - rt0.allocBytes) / (1 << 20),
		PeakRSSMB: peakMB,
		GCCycles:  rt1.gcCycles - rt0.gcCycles,
		Injected:  int64(len(in.reqs)),
		Resolved:  in.led.resolved,
		LCLatMs:   in.lat,
		Sim: simResult{
			LCPhi:      m.LC.Rate(),
			LCP50Ms:    tails["p50"],
			LCP99Ms:    tails["p99"],
			LCSamples:  m.LC.Completed,
			BEDone:     in.sys.Summarize("tango").Throughput,
			FailedFrac: float64(in.led.resolved-in.led.completed) / float64(len(in.reqs)),
			Events:     in.sys.Sim.Fired(),
		},
	}
	if n, err := in.led.verify(); err != nil {
		r.Violations, r.Conservation = n, err.Error()
	}
	if traced {
		r.Layers = map[string]float64{
			"topo.build_s":     median(phases[0]),
			"trace.gen_s":      median(phases[1]),
			"core.new_s":       median(phases[2]),
			"core.inject_s":    median(phases[3]),
			"trace.requests":   float64(len(in.reqs)),
			"go.gc_cycles":     rt1.gcCycles - rt0.gcCycles,
			"go.gc_cpu_s":      rt1.gcCPUS - rt0.gcCPUS,
			"go.alloc_objects": rt1.allocObjects - rt0.allocObjects,
		}
		r.Tails = map[string]int{}
		in.pr.collect(r, runS)
	}
	return r
}

// generate draws the workload's request trace for seed over the fleet.
// The seed drives arrival times, service types and the P3 rate shape;
// how load splits across clusters is part of the workload, fixed so that
// every seed contends the same hot spots. The split follows the
// generator's own log-normal law (σ = 0.8) and equals the one it draws
// for seed 1.
func generate(tp *topo.Topology, w workload, horizon time.Duration, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(1))
	clusters := make([]topo.ClusterID, len(tp.Clusters))
	weights := make([]float64, len(tp.Clusters))
	for i, c := range tp.Clusters {
		clusters[i] = c.ID
		weights[i] = math.Exp(rng.NormFloat64() * 0.8)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, horizon, seed)
	gen.ClusterWeights = weights
	gen.LCRatePerSec = w.lcRate
	gen.BERatePerSec = w.beRate
	return trace.Generate(gen)
}

// collect turns the probes' counters into per-layer metrics.
func (p *probes) collect(r *runResult, runS float64) {
	L := r.Layers
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	timer := func(name string, t *callTimer, unit time.Duration, suffix string) {
		L[name+".calls"] = t.calls()
		L[name+".s"] = t.totalS()
		p50, tail, rank := t.quantiles(unit)
		L[name+"."+suffix+"_p50"] = p50
		L[name+"."+suffix+"_tail"] = tail
		r.Tails[name+"."+suffix+"_tail"] = rank
	}

	L["sim.events"] = float64(r.Sim.Events)
	L["sim.us_per_event"] = ratio(runS*1e6, float64(r.Sim.Events))
	L["sim.be_done"] = float64(r.Sim.BEDone)
	L["sim.failed_frac"] = r.Sim.FailedFrac

	L["dcgbe.decisions"] = float64(p.be.Decisions)
	L["dcgbe.cache_hit_ratio"] = ratio(float64(p.be.CacheHits), float64(p.be.Decisions))
	timer("dcgbe.infer", &p.agent.infer, time.Millisecond, "ms")
	timer("dcgbe.train", &p.agent.train, time.Millisecond, "ms")
	L["dcgbe.train.batch"] = ratio(float64(p.agent.batch), p.agent.train.calls())

	var solves, warm uint64
	if p.lc != nil {
		timer("dsslc", &p.lc.t, time.Millisecond, "ms")
		L["dsslc.reqs"] = float64(p.lc.reqs)
		L["dsslc.us_per_req"] = ratio(p.lc.t.totalS()*1e6, float64(p.lc.reqs))
		L["dsslc.assigned_ratio"] = ratio(float64(p.lc.assigned), float64(p.lc.reqs))
		if ws := p.lc.inner.Workspace(); ws != nil {
			solves, warm = ws.Solves, ws.WarmHits
		}
	} else {
		timer("dsslc", &callTimer{}, time.Millisecond, "ms")
		L["dsslc.reqs"], L["dsslc.us_per_req"], L["dsslc.assigned_ratio"] = 0, 0, 0
	}
	var shSolves, shWarm uint64
	var overflow int64
	if p.shard != nil {
		solves, warm = p.shard.SolverTotals()
		for _, st := range p.shard.Stats() {
			shSolves += st.Solves
			shWarm += st.WarmHits
		}
		overflow = p.shard.OverflowRouted
	}
	L["flow.solves"] = float64(solves)
	L["flow.warm_hit_ratio"] = ratio(float64(warm), float64(solves))
	L["shard.solves"] = float64(shSolves)
	L["shard.warm_hit_ratio"] = ratio(float64(shWarm), float64(shSolves))
	L["shard.overflow"] = float64(overflow)

	self := func(id perf.PhaseID) float64 { return float64(p.prof.Stats(id).SelfNs) / 1e9 }
	L["flow.graph_build_s"] = self(perf.PhaseSolveGraphBuild)
	L["flow.mcnf_s"] = self(perf.PhaseSolveMCNF)
	L["flow.dijkstra_s"] = self(perf.PhaseSolveDijkstra)
	L["engine.dispatch_self_s"] = self(perf.PhaseEngineDispatch)
	L["engine.collect_s"] = float64(p.prof.Stats(perf.PhaseEngineCollect).TotalNs) / 1e9

	timer("hrm.admit", &p.policy.t, time.Microsecond, "us")
	L["hrm.admit_ratio"] = ratio(float64(p.policy.admitted), p.policy.t.calls())
}

// Package core is the Tango framework itself (§3, Figure 3): it wires
// the LC traffic dispatcher on every master node, the centralized BE
// traffic dispatcher on the central cluster, the metrics pipeline, the
// QoS detector / re-assurer, the D-VPA-backed resource policy and the
// execution engine into one runnable System.
//
// The System follows the paper's dispatch–allocate–adjust operation:
// (1) arriving requests enter the LC or BE scheduling queue of their
// cluster's master; each dispatcher round hands every master's LC queue
// to the LC scheduler through its one entry point,
// LCScheduler.ScheduleRound (DSS-LC by default), while BE requests are
// forwarded to the central cluster and dispatched by DCG-BE; (2) on the
// worker, the resource policy (HRM regulations through D-VPA) allocates
// the minimum required resources and reclaims them at completion; (3)
// the QoS detector feeds the re-assurance mechanism, which adjusts the
// per-node minimum allocations. Both dispatchers decide on live engine
// state: a request sees every earlier dispatch of its round.
//
// Every component is swappable, which is how the baseline systems
// (native K8s, CERES, DSACO) and the Figure 12 algorithm pairings are
// expressed: the algorithm behind the one LC entry point changes, the
// dispatcher around it does not.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/dcgbe"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/hrm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// LCScheduler is core's one LC dispatch entry point. Every dispatcher
// round hands it one batch per unstalled master queue; it writes each
// chosen worker into out and calls deliver once per batch after that
// batch's assignments are in out. deliver dispatches the assigned
// requests and requeues the rest at their master. DSS-LC
// (*shard.Scheduler, one shard unless Options.LCShards says otherwise)
// implements it directly; core.New adapts the other scheduler shapes.
type LCScheduler interface {
	ScheduleRound(batches []shard.Batch, out dsslc.Assignment, deliver func(shard.Batch))
	Name() string
}

// OutcomeObserver receives request outcomes (QoS detector consumers).
type OutcomeObserver interface {
	NotifyOutcome(o engine.Outcome)
}

// Fixed system parameters (DESIGN.md lists their sources).
const (
	// dispatchEvery is the dispatcher cadence.
	dispatchEvery = 50 * time.Millisecond
	// collectPeriod is the metrics collection period (800 ms in §6.2).
	collectPeriod = 800 * time.Millisecond
	// lcAbandonFactor forwards to engine.Config.
	lcAbandonFactor = 1.0
)

// Options configures a System over the default service catalog. Zero
// values select the paper's Tango configuration where meaningful.
type Options struct {
	Topo *topo.Topology
	Seed int64

	// Policy is the node resource policy; nil = HRM regulations.
	Policy engine.Policy
	// MakeLC builds the LC scheduler: an LCScheduler, a per-master batch
	// scheduler (ScheduleBatchInto and Name, as *dsslc.Scheduler) or a
	// one-request sched.Scheduler. nil = DSS-LC. core.New panics on any
	// other type.
	MakeLC func(e *engine.Engine, seed int64) any
	// MakeBE builds the BE scheduler, a sched.Scheduler; nil = DCG-BE.
	// core.New panics on any other type.
	MakeBE func(e *engine.Engine, seed int64) any

	// Reassure enables the QoS re-assurance mechanism (§4.3).
	Reassure bool
	// Boost enables BE idle-resource maximization (§4.1).
	Boost bool
	// CentralBE forwards BE requests to the central cluster before
	// scheduling (adds WAN latency, §5.3); false dispatches BE locally.
	CentralBE bool
	// ScaleLatency models the per-admission vertical scaling cost
	// (D-VPA's 23 ms; 0 for static allocation baselines).
	ScaleLatency time.Duration
	// LCShards is the number of geographic shards (internal/shard) the
	// default DSS-LC partitions the topology into. Shards solve
	// concurrently, followed by a sequential cross-shard overflow pass.
	// 0 or 1 is the single global DSS-LC, which is the one-shard case of
	// the same scheduler. Applies only when MakeLC is nil.
	LCShards int
	// LCShardWorkers bounds the shard solve pool (0 = GOMAXPROCS).
	LCShardWorkers int

	// TraceSink, when non-nil, enables simulation-time tracing: a Tracer
	// over the system clock is wired into the engine, the DSS-LC
	// scheduler and the QoS re-assurer, and every lifecycle event is
	// recorded into the sink. Use obs.NullSink{} to collect only the
	// per-kind event counts for the run report.
	TraceSink obs.Sink
	// TraceTag stamps every event (distinguishes systems sharing a sink).
	TraceTag string
	// SpanSampleRate, when in (0,1], installs a deterministic head-based
	// span sampler keyed by (request ID, Seed): each request's whole span
	// tree is kept or dropped atomically, reproducibly per seed. 0 (the
	// default) and 1 both record every span — a rate-1.0 run is
	// byte-identical to an unsampled one. Events and decision records are
	// never sampled.
	SpanSampleRate float64

	// Verify enables the run-time invariant checks: a Verifier sweeps
	// engine.SelfCheck and obs.SLOAccountant.SelfCheck every collection
	// period and after every chaos revive, and checks flow conservation
	// after every DSS-LC min-cost-flow solve. Violations are recorded,
	// not fatal; read System.Verifier.
	Verify bool

	// OnOutcome, when non-nil, receives every request outcome after the
	// built-in observers. The chaos differential oracle uses it to prove
	// request conservation (exactly one outcome per accepted request).
	OnOutcome func(o engine.Outcome)

	// Chaos, when non-nil, arms the fault-injection program at Start:
	// every fault (and windowed clear) becomes an ordinary sim event, so
	// a chaos run replays byte-identically under the same scenario and
	// seed. Nil keeps the system exactly digest-identical to a build
	// without the chaos subsystem. Flash-crowd bursts scale a template
	// of 60 LC / 25 BE requests per second.
	Chaos *chaos.Program
	// Defrag runs a periodic defragmentation pass that live-migrates
	// the newest BE work off hot nodes onto cold reachable ones (see
	// chaos.Defragmenter for the thresholds).
	Defrag bool

	// Profiler, when non-nil, enables phase profiling: the DSS-LC solve
	// stages, the dispatcher rounds, admission checks, the collector
	// tick and DCG-BE's inference and training are timed (wall clock and
	// allocation deltas), the collector samples Go runtime/metrics into
	// perf_*-prefixed registry gauges, and the run report gains a "perf"
	// section. All of it is stripped by obs.ReportDigest, so profiling
	// never perturbs replay digests.
	Profiler *perf.Profiler
}

// Tango returns the full Tango configuration over a topology.
func Tango(t *topo.Topology, seed int64) Options {
	return Options{
		Topo: t, Seed: seed,
		Reassure: true, Boost: true, CentralBE: true,
		ScaleLatency: hrm.DVPAOpLatency,
	}
}

// System is a running edge-cloud deployment.
type System struct {
	Sim     *sim.Simulator
	Topo    *topo.Topology
	Engine  *engine.Engine
	Catalog *trace.Catalog

	lcSched   LCScheduler
	beSched   sched.Scheduler
	reassurer *hrm.ReAssurer
	booster   *hrm.Booster
	observers []func(engine.Outcome)

	opts Options

	lcQueues map[topo.ClusterID][]*engine.Request
	// lcBatches and lcAssign are reused by every dispatch round.
	lcBatches []shard.Batch
	lcAssign  dsslc.Assignment
	beQueue   []*engine.Request
	central   topo.ClusterID

	Metrics *Collector
	// Tracer is non-nil when Options.TraceSink was set.
	Tracer *obs.Tracer
	// SLO tracks per-service satisfaction, tail latency and violation
	// episodes (always on; decision attribution needs the Tracer).
	SLO *obs.SLOAccountant
	// Verifier is non-nil when Options.Verify was set; it counts the
	// invariant checks run and logs every violation they find.
	Verifier *Verifier
	// Chaos is non-nil when Options.Chaos was set.
	Chaos *chaos.Injector
	// Defrag is non-nil when Options.Defrag was set.
	Defrag *chaos.Defragmenter

	// masterStall / collStall hold the virtual times until which a
	// cluster's LC dispatch / the metrics collector are paused. The map
	// stays nil on chaos-free runs, keeping the hot dispatch path
	// untouched.
	masterStall map[topo.ClusterID]time.Duration
	collStall   time.Duration

	periodics []*sim.Event
}

// New assembles a System from options.
func New(o Options) *System {
	if o.Topo == nil {
		panic("core: Options.Topo required")
	}
	if o.Policy == nil {
		o.Policy = hrm.NewRegulations()
	}

	s := &System{
		Sim:      sim.New(),
		Topo:     o.Topo,
		Catalog:  trace.DefaultCatalog(),
		opts:     o,
		lcQueues: map[topo.ClusterID][]*engine.Request{},
		lcAssign: dsslc.Assignment{},
		central:  o.Topo.CentralCluster().ID,
	}
	s.Metrics = NewCollector(collectPeriod)
	s.SLO = obs.NewSLOAccountant(obs.SLOConfig{})
	if o.TraceSink != nil {
		s.Tracer = obs.NewTracer(s.Sim.Now, o.TraceSink)
		s.Tracer.SetTag(o.TraceTag)
		if o.SpanSampleRate > 0 {
			s.Tracer.SetSampler(obs.NewSampler(o.SpanSampleRate, o.Seed))
		}
	}
	s.Engine = engine.New(engine.Config{
		Sim: s.Sim, Topo: o.Topo, Catalog: s.Catalog, Policy: o.Policy,
		ScaleLatency:    o.ScaleLatency,
		LCAbandonFactor: lcAbandonFactor,
		OnOutcome:       s.onOutcome,
		OnDisplaced:     s.redispatch,
		Tracer:          s.Tracer,
		Prof:            o.Profiler,
	})
	if o.MakeLC == nil {
		o.MakeLC = func(e *engine.Engine, seed int64) any {
			return shard.New(e, seed, o.LCShards, o.LCShardWorkers)
		}
	}
	if o.MakeBE == nil {
		o.MakeBE = func(e *engine.Engine, seed int64) any { return dcgbe.New(e, seed) }
	}
	s.lcSched = s.asLCScheduler(o.MakeLC(s.Engine, o.Seed))
	be := o.MakeBE(s.Engine, o.Seed+1)
	bs, ok := be.(sched.Scheduler)
	if !ok {
		panic(fmt.Sprintf("core: BE scheduler %T implements no known interface", be))
	}
	s.beSched = bs
	if o.Verify {
		s.Verifier = &Verifier{now: s.Sim.Now}
	}
	if sh, ok := s.lcSched.(*shard.Scheduler); ok {
		sh.Tracer = s.Tracer
		sh.Prof = o.Profiler
		sh.OnDecision = func(d obs.Decision) { s.SLO.NoteDecision(d.ID, d.At) }
		if s.Verifier != nil {
			sh.OnSolve = s.Verifier.onSolve
		}
	}

	if o.Reassure {
		s.reassurer = hrm.NewReAssurer(s.Engine)
		s.reassurer.Tracer = s.Tracer
		s.observers = append(s.observers, s.reassurer.Observe)
	}
	if o.Boost {
		s.booster = hrm.NewBooster(s.Engine)
	}
	if obs, ok := s.beSched.(OutcomeObserver); ok {
		s.observers = append(s.observers, obs.NotifyOutcome)
	}
	if o.OnOutcome != nil {
		s.observers = append(s.observers, o.OnOutcome)
	}
	if be, ok := s.beSched.(*dcgbe.Scheduler); ok {
		be.Prof = o.Profiler
		// The DCG-BE state includes the current slack score δ_k
		// (§5.3.1); feed it from the re-assurer's windows when both are
		// present.
		if s.reassurer != nil {
			be.SlackFn = s.nodeSlack
		}
	}
	if o.Chaos != nil {
		s.masterStall = map[topo.ClusterID]time.Duration{}
		s.Chaos = chaos.NewInjector(*o.Chaos, chaos.InjectorConfig{
			Sim: s.Sim, Engine: s.Engine, Topo: s.Topo, Tracer: s.Tracer,
			Gen:            trace.GenConfig{Catalog: s.Catalog, LCRatePerSec: 60, BERatePerSec: 25},
			Inject:         s.Inject,
			StallMaster:    func(c topo.ClusterID, until time.Duration) { s.masterStall[c] = until },
			StallCollector: func(until time.Duration) { s.collStall = until },
			OnRevive: func() {
				// The differential oracle demands green self-checks after
				// every revive, not only at period boundaries.
				if s.Verifier != nil {
					s.Verifier.sweep(s.Engine, s.SLO)
				}
			},
		})
	}
	if o.Defrag {
		s.Defrag = chaos.NewDefragmenter(s.Engine)
	}
	s.Metrics.Bind(s)
	return s
}

// asLCScheduler converts MakeLC's product into the LC entry point.
func (s *System) asLCScheduler(v any) LCScheduler {
	switch lc := v.(type) {
	case LCScheduler:
		return lc
	case batchScheduler:
		return batchLC{lc}
	case sched.Scheduler:
		return pickLC{lc, s}
	}
	panic(fmt.Sprintf("core: LC scheduler %T implements no known interface", v))
}

// batchScheduler schedules one master's LC queue per call, as
// *dsslc.Scheduler does.
type batchScheduler interface {
	ScheduleBatchInto(c topo.ClusterID, reqs []*engine.Request, out dsslc.Assignment)
	Name() string
}

// batchLC adapts a batchScheduler: each batch is scheduled into a
// cleared out, so out holds only that batch's assignments, then
// delivered.
type batchLC struct{ batchScheduler }

func (b batchLC) ScheduleRound(batches []shard.Batch, out dsslc.Assignment, deliver func(shard.Batch)) {
	for _, bt := range batches {
		clear(out)
		b.ScheduleBatchInto(bt.Cluster, bt.Reqs, out)
		deliver(bt)
	}
}

// pickLC adapts a one-request sched.Scheduler. Candidates are gathered
// once per batch, and each request is delivered as soon as it is
// picked, so every pick sees the previous one dispatched.
type pickLC struct {
	sched.Scheduler
	sys *System
}

func (p pickLC) ScheduleRound(batches []shard.Batch, out dsslc.Assignment, deliver func(shard.Batch)) {
	s := p.sys
	for _, b := range batches {
		cands := sched.CandidatesLC(s.Engine, b.Cluster)
		for i, r := range b.Reqs {
			if nid, ok := p.Pick(r, cands); ok {
				if id := sched.Audit(s.Tracer, p.Scheduler, r, cands, nid, ok); id >= 0 {
					s.SLO.NoteDecision(id, s.Sim.Now())
				}
				out[r.ID] = nid
			}
			deliver(shard.Batch{Cluster: b.Cluster, Reqs: b.Reqs[i : i+1]})
		}
	}
}

// nodeSlack returns the worst (minimum) slack score over the LC services
// observed on the node in the current window, 0 when nothing is known.
func (s *System) nodeSlack(id topo.NodeID) float64 {
	worst := 0.0
	seen := false
	for _, st := range s.Catalog.Types {
		if st.Class != trace.LC {
			continue
		}
		if v, ok := s.reassurer.Slack(id, st.ID); ok {
			if !seen || v < worst {
				worst, seen = v, true
			}
		}
	}
	return worst
}

// LCSchedulerName reports the LC algorithm in use.
func (s *System) LCSchedulerName() string { return s.lcSched.Name() }

// BESchedulerName reports the BE algorithm in use.
func (s *System) BESchedulerName() string { return s.beSched.Name() }

// BEScheduler returns the BE scheduler in use.
func (s *System) BEScheduler() sched.Scheduler { return s.beSched }

func (s *System) onOutcome(o engine.Outcome) {
	s.Metrics.observe(o)
	if o.Req.Class == trace.LC {
		s.SLO.Observe(int(o.Req.Type), o.Req.SType.Name, o.Req.Class.String(),
			o.FinishedAt, float64(o.Latency)/float64(time.Millisecond),
			o.Completed, o.Satisfied)
	}
	for _, obs := range s.observers {
		obs(o)
	}
}

// Inject schedules the arrival of trace requests. Arrival times are
// absolute virtual times: injecting before Run places the whole trace
// as usual, while a mid-run injection (chaos flash crowds) lands each
// burst request at its stamped arrival rather than re-offsetting it.
func (s *System) Inject(reqs []trace.Request) {
	for _, r := range reqs {
		r := r
		s.Sim.ScheduleAt(r.Arrival, func() { s.accept(r) })
	}
}

// accept implements step (1): queue at the master (LC locally, BE
// forwarded to the central cluster when CentralBE).
func (s *System) accept(tr trace.Request) {
	r := s.Engine.NewRequest(tr)
	if t := s.Tracer; t.Enabled() {
		t.Emit(obs.Ev(obs.EvArrival).Req(r.ID).Clu(int(r.Cluster)).
			Service(int(r.Type)).Cls(r.Class.String()))
	}
	s.Metrics.arrived(r)
	if r.Class == trace.LC {
		s.lcQueues[r.Cluster] = append(s.lcQueues[r.Cluster], r)
		return
	}
	if !s.opts.CentralBE || r.Cluster == s.central {
		s.beQueue = append(s.beQueue, r)
		return
	}
	// Forward to the central cluster over the WAN.
	delay := s.Topo.ClusterRTT(r.Cluster, s.central) / 2
	s.Sim.Schedule(delay, func() { s.beQueue = append(s.beQueue, r) })
}

// Start arms the periodic dispatchers, metric sampler, booster and
// re-assurer.
func (s *System) Start() {
	s.periodics = append(s.periodics, s.Sim.Every(dispatchEvery, s.dispatch))
	s.periodics = append(s.periodics, s.Sim.Every(collectPeriod, s.collectorTick))
	if s.Chaos != nil {
		s.Chaos.Arm()
	}
	if s.Defrag != nil {
		s.periodics = append(s.periodics, s.Sim.Every(chaos.DefragEvery, func() { s.Defrag.Run() }))
	}
	if s.booster != nil {
		s.periodics = append(s.periodics, s.booster.Start(s.Sim))
	}
	if s.reassurer != nil {
		s.periodics = append(s.periodics, s.reassurer.Start(s.Sim))
	}
	if s.Verifier != nil {
		s.periodics = append(s.periodics, s.Sim.Every(collectPeriod, func() {
			s.Verifier.sweep(s.Engine, s.SLO)
		}))
	}
}

// Stop cancels the periodic work.
func (s *System) Stop() {
	for _, ev := range s.periodics {
		ev.Cancel()
	}
	s.periodics = nil
}

// collectorTick runs one collection period unless a chaos collector
// stall covers this instant (stalled periods are skipped, not
// deferred). Chaos-free runs always fall straight through.
func (s *System) collectorTick() {
	if s.Sim.Now() < s.collStall {
		return
	}
	s.Metrics.tick()
}

// Run executes the whole experiment: Start, run the clock until
// `until`, then Stop and let in-flight work complete.
func (s *System) Run(until time.Duration) {
	s.Start()
	s.Sim.RunUntil(until)
	s.Stop()
	s.Sim.Run() // drain in-flight completions
	s.flushLeftovers()
}

// flushLeftovers resolves requests still sitting in scheduling queues
// after the drain — work re-queued by a failure so late that no
// dispatch round remained to place it. Without this, such requests
// would silently vanish: accepted (arrival counted) but never resolved
// to an outcome, which the chaos conservation oracle flags. They
// resolve as failed outcomes in ID order, deterministically.
func (s *System) flushLeftovers() {
	var leftovers []*engine.Request
	for _, c := range s.Topo.Clusters {
		leftovers = append(leftovers, s.lcQueues[c.ID]...)
		s.lcQueues[c.ID] = nil
	}
	leftovers = append(leftovers, s.beQueue...)
	s.beQueue = nil
	if len(leftovers) == 0 {
		return
	}
	sort.Slice(leftovers, func(i, j int) bool { return leftovers[i].ID < leftovers[j].ID })
	s.Engine.DisplaceFailed(leftovers)
}

// dispatch is one dispatcher round: every unstalled master's LC queue
// goes to the LC scheduler as one batch, then the BE queue drains.
func (s *System) dispatch() {
	s.opts.Profiler.Enter(perf.PhaseEngineDispatch)
	defer s.opts.Profiler.Exit(perf.PhaseEngineDispatch)
	s.lcBatches = s.lcBatches[:0]
	for _, c := range s.Topo.Clusters {
		q := s.lcQueues[c.ID]
		if len(q) == 0 || s.masterStalled(c.ID) {
			continue
		}
		s.lcQueues[c.ID] = nil
		s.lcBatches = append(s.lcBatches, shard.Batch{Cluster: c.ID, Reqs: q})
	}
	if len(s.lcBatches) > 0 {
		clear(s.lcAssign)
		s.lcSched.ScheduleRound(s.lcBatches, s.lcAssign, s.deliver)
	}
	s.dispatchBE()
}

// deliver dispatches one batch's assigned requests and requeues the
// rest at their master.
func (s *System) deliver(b shard.Batch) {
	for _, r := range b.Reqs {
		if nid, ok := s.lcAssign[r.ID]; ok {
			s.Engine.Dispatch(r, nid)
		} else {
			s.requeueLC(b.Cluster, r)
		}
	}
}

// dispatchBE drains the centralized BE queue.
func (s *System) dispatchBE() {
	if len(s.beQueue) == 0 {
		return
	}
	q := s.beQueue
	s.beQueue = nil
	cands := sched.CandidatesBE(s.Engine)
	for _, r := range q {
		if nid, ok := s.beSched.Pick(r, cands); ok {
			s.Engine.Dispatch(r, nid)
		} else {
			s.beQueue = append(s.beQueue, r) // retry next round
		}
	}
}

func (s *System) requeueLC(c topo.ClusterID, r *engine.Request) {
	s.lcQueues[c] = append(s.lcQueues[c], r)
}

// masterStalled reports whether a chaos master stall currently covers
// cluster c. Always false on chaos-free runs (nil map).
func (s *System) masterStalled(c topo.ClusterID) bool {
	if s.masterStall == nil {
		return false
	}
	return s.Sim.Now() < s.masterStall[c]
}

// redispatch returns requests displaced by a node failure to their
// arrival master's scheduling queue (LC) or the central BE queue. The
// next dispatch round reads live engine state, so it routes around the
// dead node.
func (s *System) redispatch(reqs []*engine.Request) {
	for _, r := range reqs {
		if r.Class == trace.LC {
			s.requeueLC(r.Cluster, r)
		} else {
			s.beQueue = append(s.beQueue, r)
		}
	}
}

// FailNode schedules a worker failure at virtual time `at`; its running
// and queued requests are re-dispatched elsewhere.
func (s *System) FailNode(id topo.NodeID, at time.Duration) {
	s.Sim.ScheduleAt(at, func() { s.Engine.Node(id).Fail() })
}

// RecoverNode schedules the worker's recovery.
func (s *System) RecoverNode(id topo.NodeID, at time.Duration) {
	s.Sim.ScheduleAt(at, func() { s.Engine.Node(id).Recover() })
}

// Collector aggregates the paper's measurements into period series.
type Collector struct {
	Period time.Duration

	sys *System

	// Cumulative counters.
	LC metrics.QoSCounter
	BE metrics.QoSCounter

	// Per-period series (one sample per 800 ms period).
	UtilSeries      metrics.Series
	LCUtilSeries    metrics.Series
	BEUtilSeries    metrics.Series
	QoSRateSeries   metrics.Series
	ThroughputSer   metrics.Series
	AbandonedSeries metrics.Series
	TailLatencySer  metrics.Series
	LCArrivalsSer   metrics.Series
	BEArrivalsSer   metrics.Series

	// registry is the labeled metric substrate (the Prometheus stand-in);
	// each tick scrapes it into RegistrySeries, one period-indexed series
	// per labeled sample (keyed name{labels}).
	registry       *obs.Registry
	RegistrySeries map[string]*metrics.Series
	clusterStats   map[topo.ClusterID]*clusterStats
	latencyHists   map[trace.TypeID]*obs.Histogram
	nodeGauges     []nodeGauges
	phiGauges      map[int]phiGauges
	solverGauges   *solverGauges
	chaosG         *chaosGauges
	shardGauges    []shardGauges
	overflowGauge  *obs.Gauge
	gatherBuf      []obs.Sample // reused across scrapes (zero-alloc Gather)

	// Performance observability (nil unless Options.Profiler was set):
	// each tick samples Go runtime/metrics into perf_* gauges, which the
	// scrape then turns into period-aligned series like any other metric.
	prof          *perf.Profiler
	harvester     *perf.Harvester
	runtimeGauges map[string]*obs.Gauge
	lastRuntime   perf.RuntimeSample
	rtSampled     bool

	// Per-period scratch counters.
	pLCArr, pBEArr       int64
	pLCSat, pLCDone      int64
	pBEDone              int64
	pAbandoned           int64
	latencies            []float64
	allLatencies         []float64
	sumLCLatenciesMs     float64
	completedLCLatencies int64
}

// phiGauges caches one service's live SLO gauges.
type phiGauges struct {
	phi     *obs.Gauge
	rolling *obs.Gauge
}

// chaosGauges caches the chaos/migration gauges. They exist only when
// the run has a chaos program or defragmenter, so chaos-free reports
// keep their metric set — and their digests — unchanged.
type chaosGauges struct {
	applied  *obs.Gauge
	cleared  *obs.Gauge
	active   *obs.Gauge
	injected *obs.Gauge
	// migrations counts engine live migrations (injector- or
	// defrag-driven).
	migrations   *obs.Gauge
	defragPasses *obs.Gauge
	defragMoves  *obs.Gauge
}

// solverGauges caches the DSS-LC solver health gauges (warm-start hit
// rate is the headline statistic of the MCNF warm-start optimisation).
type solverGauges struct {
	solves   *obs.Gauge
	warmHits *obs.Gauge
	warmRate *obs.Gauge
}

// shardGauges caches one shard's solver series (sharded dispatcher
// only), labeled {shard="sN"}.
type shardGauges struct {
	solves   *obs.Gauge
	warmHits *obs.Gauge
	warmRate *obs.Gauge
	clusters *obs.Gauge
	overflow *obs.Gauge
}

// clusterStats caches the per-cluster counter handles so the arrival and
// outcome paths update fields instead of doing registry lookups.
type clusterStats struct {
	arrLC, arrBE   *obs.Counter
	doneLC, doneBE *obs.Counter
	satisfied      *obs.Counter
	abandoned      *obs.Counter
}

type nodeGauges struct {
	util, queue, scaleOps *obs.Gauge
}

// NewCollector builds a collector with the given period.
func NewCollector(period time.Duration) *Collector {
	return &Collector{
		Period:          period,
		UtilSeries:      metrics.Series{Name: "utilization"},
		LCUtilSeries:    metrics.Series{Name: "lc-utilization"},
		BEUtilSeries:    metrics.Series{Name: "be-utilization"},
		QoSRateSeries:   metrics.Series{Name: "qos-rate"},
		ThroughputSer:   metrics.Series{Name: "be-throughput"},
		AbandonedSeries: metrics.Series{Name: "abandoned"},
		TailLatencySer:  metrics.Series{Name: "lc-p95-ms"},
		LCArrivalsSer:   metrics.Series{Name: "lc-arrivals"},
		BEArrivalsSer:   metrics.Series{Name: "be-arrivals"},
		registry:        obs.NewRegistry(),
		RegistrySeries:  map[string]*metrics.Series{},
		clusterStats:    map[topo.ClusterID]*clusterStats{},
		latencyHists:    map[trace.TypeID]*obs.Histogram{},
	}
}

// Bind attaches the collector to a system (for utilization sampling).
func (c *Collector) Bind(s *System) {
	c.sys = s
	if p := s.opts.Profiler; p.Enabled() {
		c.prof = p
		c.harvester = perf.NewHarvester()
		c.runtimeGauges = map[string]*obs.Gauge{}
	}
}

// Registry exposes the labeled metric registry.
func (c *Collector) Registry() *obs.Registry { return c.registry }

func (c *Collector) statsFor(cl topo.ClusterID) *clusterStats {
	cs, ok := c.clusterStats[cl]
	if !ok {
		l := obs.Labels{Cluster: fmt.Sprintf("c%d", cl)}
		lc, be := l, l
		lc.Service, be.Service = "LC", "BE"
		cs = &clusterStats{
			arrLC:     c.registry.Counter("tango_requests_arrived_total", lc),
			arrBE:     c.registry.Counter("tango_requests_arrived_total", be),
			doneLC:    c.registry.Counter("tango_requests_completed_total", lc),
			doneBE:    c.registry.Counter("tango_requests_completed_total", be),
			satisfied: c.registry.Counter("tango_lc_satisfied_total", l),
			abandoned: c.registry.Counter("tango_lc_abandoned_total", l),
		}
		c.clusterStats[cl] = cs
	}
	return cs
}

func (c *Collector) latencyHist(t trace.TypeID) *obs.Histogram {
	h, ok := c.latencyHists[t]
	if !ok {
		name := c.sys.Catalog.Type(t).Name
		h = c.registry.Histogram("tango_lc_latency_ms", obs.Labels{Service: name}, nil)
		c.latencyHists[t] = h
	}
	return h
}

func (c *Collector) arrived(r *engine.Request) {
	cs := c.statsFor(r.Cluster)
	if r.Class == trace.LC {
		c.LC.Arrived++
		c.pLCArr++
		cs.arrLC.Inc()
	} else {
		c.BE.Arrived++
		c.pBEArr++
		cs.arrBE.Inc()
	}
}

func (c *Collector) observe(o engine.Outcome) {
	cs := c.statsFor(o.Req.Cluster)
	if o.Req.Class == trace.LC {
		if o.Completed {
			c.LC.Completed++
			c.pLCDone++
			cs.doneLC.Inc()
			if o.Satisfied {
				c.LC.Satisfied++
				c.pLCSat++
				cs.satisfied.Inc()
			}
			ms := float64(o.Latency) / float64(time.Millisecond)
			c.latencies = append(c.latencies, ms)
			c.allLatencies = append(c.allLatencies, ms)
			c.sumLCLatenciesMs += ms
			c.completedLCLatencies++
			c.latencyHist(o.Req.Type).Observe(ms)
		} else {
			c.LC.Abandoned++
			c.pAbandoned++
			cs.abandoned.Inc()
		}
		return
	}
	if o.Completed {
		c.BE.Completed++
		c.BE.Satisfied++
		c.pBEDone++
		cs.doneBE.Inc()
	}
}

// tick closes one collection period.
func (c *Collector) tick() {
	c.prof.Enter(perf.PhaseEngineCollect)
	defer c.prof.Exit(perf.PhaseEngineCollect)
	c.UtilSeries.Append(c.sys.Utilization())
	lc, be := c.sys.UtilizationSplit()
	c.LCUtilSeries.Append(lc)
	c.BEUtilSeries.Append(be)
	// Per-period satisfaction rate over LC requests resolved this period
	// (completions plus abandonments), as in the paper's period plots.
	var rate float64 = 1
	if resolved := c.pLCDone + c.pAbandoned; resolved > 0 {
		rate = float64(c.pLCSat) / float64(resolved)
	}
	c.QoSRateSeries.Append(rate)
	c.ThroughputSer.Append(float64(c.pBEDone))
	c.AbandonedSeries.Append(float64(c.pAbandoned))
	p95 := percentile95(c.latencies)
	c.TailLatencySer.Append(p95)
	c.LCArrivalsSer.Append(float64(c.pLCArr))
	c.BEArrivalsSer.Append(float64(c.pBEArr))
	c.pLCArr, c.pBEArr, c.pLCSat, c.pLCDone, c.pBEDone, c.pAbandoned = 0, 0, 0, 0, 0, 0
	c.latencies = c.latencies[:0]
	c.updateNodeGauges()
	c.updateSLOGauges()
	c.updateSolverGauges()
	c.updateChaosGauges()
	c.sampleRuntime()
	c.scrape()
}

// updateChaosGauges refreshes the tango_chaos_* / migration gauges.
// No-op unless the run has a chaos program or a defragmenter.
func (c *Collector) updateChaosGauges() {
	inj, df := c.sys.Chaos, c.sys.Defrag
	if inj == nil && df == nil {
		return
	}
	if c.chaosG == nil {
		g := &chaosGauges{
			migrations: c.registry.Gauge("tango_migrations_total", obs.Labels{}),
		}
		if inj != nil {
			g.applied = c.registry.Gauge("tango_chaos_faults_total", obs.Labels{})
			g.cleared = c.registry.Gauge("tango_chaos_cleared_total", obs.Labels{})
			g.active = c.registry.Gauge("tango_chaos_active", obs.Labels{})
			g.injected = c.registry.Gauge("tango_chaos_injected_total", obs.Labels{})
		}
		if df != nil {
			g.defragPasses = c.registry.Gauge("tango_defrag_passes_total", obs.Labels{})
			g.defragMoves = c.registry.Gauge("tango_defrag_moves_total", obs.Labels{})
		}
		c.chaosG = g
	}
	c.chaosG.migrations.Set(float64(c.sys.Engine.Migrations))
	if inj != nil {
		c.chaosG.applied.Set(float64(inj.Applied))
		c.chaosG.cleared.Set(float64(inj.Cleared))
		c.chaosG.active.Set(float64(inj.Active))
		c.chaosG.injected.Set(float64(inj.Injected))
	}
	if df != nil {
		c.chaosG.defragPasses.Set(float64(df.Passes))
		c.chaosG.defragMoves.Set(float64(df.Moves))
	}
}

// updateSLOGauges refreshes the per-service φ gauges from the SLO
// accountant. Pure simulation state, so the series it adds are as
// replay-deterministic as every other tango_* metric.
func (c *Collector) updateSLOGauges() {
	if c.phiGauges == nil {
		c.phiGauges = map[int]phiGauges{}
	}
	for _, s := range c.sys.SLO.Services() {
		g, ok := c.phiGauges[s.Service]
		if !ok {
			l := obs.Labels{Service: s.Name}
			g = phiGauges{
				phi:     c.registry.Gauge("tango_slo_phi", l),
				rolling: c.registry.Gauge("tango_slo_rolling_phi", l),
			}
			c.phiGauges[s.Service] = g
		}
		g.phi.Set(s.Phi())
		g.rolling.Set(s.RollingPhi())
	}
}

// updateSolverGauges refreshes the DSS-LC solver health gauges (no-op
// for other LC schedulers and before the first solve).
func (c *Collector) updateSolverGauges() {
	sh, ok := c.sys.lcSched.(*shard.Scheduler)
	if !ok {
		return
	}
	solves, warmHits := sh.SolverTotals()
	if solves == 0 {
		return
	}
	// Per-shard series exist only with more than one shard, so the
	// single global DSS-LC reports one solver gauge set.
	if sh.NumShards() > 1 {
		c.updateShardGauges(sh)
	}
	if c.solverGauges == nil {
		c.solverGauges = &solverGauges{
			solves:   c.registry.Gauge("tango_solver_solves_total", obs.Labels{}),
			warmHits: c.registry.Gauge("tango_solver_warm_hits_total", obs.Labels{}),
			warmRate: c.registry.Gauge("tango_solver_warm_hit_rate", obs.Labels{}),
		}
	}
	c.solverGauges.solves.Set(float64(solves))
	c.solverGauges.warmHits.Set(float64(warmHits))
	rate := 0.0
	if solves > 0 {
		rate = float64(warmHits) / float64(solves)
	}
	c.solverGauges.warmRate.Set(rate)
}

// updateShardGauges refreshes the per-shard solver series of the
// sharded LC dispatcher (tango_solver_shard_*, labeled by shard).
func (c *Collector) updateShardGauges(sh *shard.Scheduler) {
	if c.shardGauges == nil {
		c.shardGauges = make([]shardGauges, sh.NumShards())
		for i := range c.shardGauges {
			l := obs.Labels{Shard: fmt.Sprintf("s%d", i)}
			c.shardGauges[i] = shardGauges{
				solves:   c.registry.Gauge("tango_solver_shard_solves_total", l),
				warmHits: c.registry.Gauge("tango_solver_shard_warm_hits_total", l),
				warmRate: c.registry.Gauge("tango_solver_shard_warm_hit_rate", l),
				clusters: c.registry.Gauge("tango_solver_shard_clusters", l),
				overflow: c.registry.Gauge("tango_solver_shard_overflow_total", l),
			}
		}
		c.overflowGauge = c.registry.Gauge("tango_solver_overflow_routed_total", obs.Labels{})
	}
	for _, st := range sh.Stats() {
		g := c.shardGauges[st.Shard]
		g.solves.Set(float64(st.Solves))
		g.warmHits.Set(float64(st.WarmHits))
		rate := 0.0
		if st.Solves > 0 {
			rate = float64(st.WarmHits) / float64(st.Solves)
		}
		g.warmRate.Set(rate)
		g.clusters.Set(float64(st.Clusters))
		g.overflow.Set(float64(st.Overflow))
	}
	c.overflowGauge.Set(float64(sh.OverflowRouted))
}

// sampleRuntime reads the Go runtime/metrics harvester into perf_*
// gauges so heap, GC and scheduler health ride the same scrape path as
// every simulation metric. No-op when profiling is off.
func (c *Collector) sampleRuntime() {
	if c.harvester == nil {
		return
	}
	c.lastRuntime = c.harvester.Sample()
	c.rtSampled = true
	for k, v := range c.lastRuntime.Map() {
		g, ok := c.runtimeGauges[k]
		if !ok {
			g = c.registry.Gauge(k, obs.Labels{})
			c.runtimeGauges[k] = g
		}
		g.Set(v)
	}
}

// updateNodeGauges refreshes the per-node labeled gauges from live
// engine state (the "Prometheus push" half of the pipeline).
func (c *Collector) updateNodeGauges() {
	nodes := c.sys.Engine.Nodes()
	if c.nodeGauges == nil {
		c.nodeGauges = make([]nodeGauges, len(nodes))
		for i, n := range nodes {
			l := obs.Labels{Cluster: fmt.Sprintf("c%d", n.Cluster), Node: fmt.Sprintf("%d", n.ID)}
			c.nodeGauges[i] = nodeGauges{
				util:     c.registry.Gauge("tango_node_utilization", l),
				queue:    c.registry.Gauge("tango_node_queue_len", l),
				scaleOps: c.registry.Gauge("tango_node_scale_ops_total", l),
			}
		}
	}
	for i, n := range nodes {
		g := c.nodeGauges[i]
		g.util.Set(n.Utilization())
		lcq, beq := n.QueueLen()
		g.queue.Set(float64(lcq + beq))
		g.scaleOps.Set(float64(n.ScaleOps))
	}
}

// scrape appends every registry sample to its period-indexed series.
// Samples appearing for the first time mid-run are back-filled with
// zeros so all registry series stay period-aligned.
func (c *Collector) scrape() {
	periods := len(c.UtilSeries.Values) - 1 // periods closed before this one
	if periods < 0 {
		periods = 0
	}
	c.gatherBuf = c.registry.GatherAppend(c.gatherBuf[:0])
	for _, s := range c.gatherBuf {
		key := s.Key()
		ser, ok := c.RegistrySeries[key]
		if !ok {
			ser = &metrics.Series{Name: key}
			if periods > 0 {
				ser.Values = make([]float64, periods)
			}
			c.RegistrySeries[key] = ser
		}
		ser.Append(s.Value)
	}
}

// MeanLCLatencyMs returns the average completed-LC latency.
func (c *Collector) MeanLCLatencyMs() float64 {
	if c.completedLCLatencies == 0 {
		return 0
	}
	return c.sumLCLatenciesMs / float64(c.completedLCLatencies)
}

// TailPercentiles returns exact nearest-rank percentiles over every
// completed LC latency of the run (ms).
func (c *Collector) TailPercentiles() map[string]float64 {
	out := map[string]float64{"p50": 0, "p90": 0, "p95": 0, "p99": 0}
	if len(c.allLatencies) == 0 {
		return out
	}
	cp := make([]float64, len(c.allLatencies))
	copy(cp, c.allLatencies)
	sort.Float64s(cp)
	out["p50"] = metrics.SortedPercentile(cp, 50)
	out["p90"] = metrics.SortedPercentile(cp, 90)
	out["p95"] = metrics.SortedPercentile(cp, 95)
	out["p99"] = metrics.SortedPercentile(cp, 99)
	return out
}

// percentile95 leaves v untouched (per-period buffers are reused by the
// caller between ticks).
func percentile95(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	cp := make([]float64, len(v))
	copy(cp, v)
	return metrics.PercentileInPlace(cp, 95)
}

// Utilization returns the current dominant-share utilization over all
// workers, capacity-weighted by CPU.
func (s *System) Utilization() float64 {
	var used, capTot float64
	for _, n := range s.Engine.Nodes() {
		used += float64(n.Used().MilliCPU)
		capTot += float64(n.Capacity.MilliCPU)
	}
	if capTot == 0 {
		return 0
	}
	return used / capTot
}

// UtilizationSplit returns the CPU utilization contributed by LC and BE
// allocations separately.
func (s *System) UtilizationSplit() (lc, be float64) {
	var lcUsed, beUsed, capTot float64
	for _, n := range s.Engine.Nodes() {
		lcUsed += float64(n.UsedByLC().MilliCPU)
		beUsed += float64(n.UsedByBE().MilliCPU)
		capTot += float64(n.Capacity.MilliCPU)
	}
	if capTot == 0 {
		return 0, 0
	}
	return lcUsed / capTot, beUsed / capTot
}

// Summary condenses an experiment run.
type Summary struct {
	System  string
	LCSched string
	BESched string
	QoSRate float64
	// Throughput counts BE completions inside the measured horizon (the
	// paper's long-term throughput); completions during the post-run
	// drain do not count.
	Throughput  int64
	MeanUtil    float64
	Abandoned   int64
	MeanLCLatMs float64
}

// Summarize builds the end-of-run summary.
func (s *System) Summarize(name string) Summary {
	return Summary{
		System:      name,
		LCSched:     s.LCSchedulerName(),
		BESched:     s.BESchedulerName(),
		QoSRate:     s.Metrics.LC.Rate(),
		Throughput:  int64(s.Metrics.ThroughputSer.Sum()),
		MeanUtil:    s.Metrics.UtilSeries.Mean(),
		Abandoned:   s.Metrics.LC.Abandoned,
		MeanLCLatMs: s.Metrics.MeanLCLatencyMs(),
	}
}

// ConfigMap flattens the options that shape a run into the string map
// hashed by obs.ConfigDigest.
func (s *System) ConfigMap(name string) map[string]string {
	o := s.opts
	lcShards := 1
	if sh, ok := s.lcSched.(*shard.Scheduler); ok {
		lcShards = sh.NumShards()
	}
	m := map[string]string{
		"lc_shards":         fmt.Sprintf("%d", lcShards),
		"system":            name,
		"lc_scheduler":      s.LCSchedulerName(),
		"be_scheduler":      s.BESchedulerName(),
		"policy":            o.Policy.Name(),
		"seed":              fmt.Sprintf("%d", o.Seed),
		"clusters":          fmt.Sprintf("%d", len(s.Topo.Clusters)),
		"workers":           fmt.Sprintf("%d", len(s.Engine.Nodes())),
		"reassure":          fmt.Sprintf("%t", o.Reassure),
		"boost":             fmt.Sprintf("%t", o.Boost),
		"central_be":        fmt.Sprintf("%t", o.CentralBE),
		"scale_latency":     o.ScaleLatency.String(),
		"dispatch_every":    dispatchEvery.String(),
		"period":            collectPeriod.String(),
		"lc_abandon_factor": fmt.Sprintf("%g", lcAbandonFactor),
		"geo_radius_km":     fmt.Sprintf("%g", topo.GeoRadiusKm),
	}
	// Chaos/defrag keys exist only when enabled, so every pre-chaos
	// config digest is preserved verbatim.
	if s.Chaos != nil {
		p := s.Chaos.Program()
		m["chaos"] = p.Name
		m["chaos_digest"] = p.Digest()
	}
	if s.Defrag != nil {
		m["defrag"] = fmt.Sprintf("%s/%d moves", chaos.DefragEvery, chaos.DefragMaxMoves)
	}
	return m
}

// Report builds the run-report document from the same collectors that
// feed the printed tables: Phi is the table's QoS satisfaction rate and
// Series["lc-p95-ms"] is the per-period p95 column, so report and tables
// always agree. wall is the real time spent simulating.
func (s *System) Report(name string, wall time.Duration) *obs.Report {
	m := s.Metrics
	cfg := s.ConfigMap(name)
	series := map[string][]float64{}
	for _, ser := range []*metrics.Series{
		&m.UtilSeries, &m.LCUtilSeries, &m.BEUtilSeries, &m.QoSRateSeries,
		&m.ThroughputSer, &m.AbandonedSeries, &m.TailLatencySer,
		&m.LCArrivalsSer, &m.BEArrivalsSer,
	} {
		series[ser.Name] = ser.Values
	}
	for key, ser := range m.RegistrySeries {
		series[key] = ser.Values
	}
	var perfSec *obs.PerfSection
	if p := s.opts.Profiler; p.Enabled() {
		perfSec = &obs.PerfSection{Phases: p.ReportPhases()}
		if m.rtSampled {
			perfSec.Runtime = m.lastRuntime.Map()
		}
	}
	return &obs.Report{
		Schema:       obs.ReportSchema,
		System:       name,
		Tag:          s.opts.TraceTag,
		ConfigDigest: obs.ConfigDigest(cfg),
		Config:       cfg,
		VirtualMs:    float64(s.Sim.Now()) / float64(time.Millisecond),
		PeriodMs:     float64(m.Period) / float64(time.Millisecond),
		WallMs:       float64(wall) / float64(time.Millisecond),
		Phi:          m.LC.Rate(),
		LC: obs.ClassStats{
			Arrived: m.LC.Arrived, Completed: m.LC.Completed,
			Satisfied: m.LC.Satisfied, Abandoned: m.LC.Abandoned,
		},
		BE: obs.ClassStats{
			Arrived: m.BE.Arrived, Completed: m.BE.Completed,
			Satisfied: m.BE.Satisfied, Abandoned: m.BE.Abandoned,
		},
		BEThroughput:    int64(m.ThroughputSer.Sum()),
		MeanUtilization: m.UtilSeries.Mean(),
		MeanLCLatencyMs: m.MeanLCLatencyMs(),
		TailLatencyMs:   m.TailPercentiles(),
		Series:          series,
		Metrics:         obs.SamplesToReport(m.Registry().Gather()),
		EventCounts:     s.Tracer.Counts(),
		SLO:             s.SLOSnapshot(),
		Sink:            s.sinkStats(),
		Perf:            perfSec,
	}
}

// SLOSnapshot closes open violation episodes and renders the
// per-service SLO accounting.
func (s *System) SLOSnapshot() []obs.SLOReport {
	s.SLO.Finalize()
	return s.SLO.Snapshot()
}

// sinkStats summarizes trace-sink health for the report (nil when
// tracing was off).
func (s *System) sinkStats() *obs.SinkStats {
	if s.Tracer == nil {
		return nil
	}
	st := &obs.SinkStats{
		Events:    s.Tracer.Emitted(),
		Spans:     s.Tracer.SpanCount(),
		Decisions: s.Tracer.DecisionCount(),
	}
	switch sink := s.opts.TraceSink.(type) {
	case *obs.WriterSink:
		st.Lines, st.Dropped = sink.Lines, sink.Dropped
		if err := sink.Err(); err != nil {
			st.Error = err.Error()
		}
	case *obs.RingSink:
		st.Lines = sink.Total() + sink.SpanTotal()
	}
	return st
}

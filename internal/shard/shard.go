// Package shard is the region-sharded parallel scheduling layer over
// DSS-LC (ROADMAP item 2: partition the global MCNF along the topo
// geography and solve shards concurrently). The paper evaluates Tango
// at 1000 nodes; reaching production edge-cloud scale (100k+) with one
// global solve per period is hopeless — the MCNF candidate set, and so
// the solve cost, grows with the whole topology. Sharding cuts the
// topology into geographically coherent regions (topo.PartitionClusters
// — weighted coordinate bisection), gives every shard its own complete
// DSS-LC instance with a private flow.Graph + flow.Workspace + keyed
// warm-start memo (the PR-7 zero-alloc contract holds per shard), and
// solves the shards concurrently on a bounded worker pool.
//
// Shard solves are restricted: a shard's scheduler only sees candidate
// workers inside its own region (dsslc.Scheduler.Restrict), so each
// solve's graph is ~1/K of the global one. That restriction can starve
// a hot shard that its neighbors could absorb, so Algorithm 2's
// spillover is preserved globally: each type's ρ-shuffled overflow set
// is intercepted (dsslc.Scheduler.OverflowSink) and re-routed in a
// sequential cross-shard overflow pass by an unrestricted DSS-LC
// instance whose geo-nearby candidates (topo.Topology.Neighbors) may
// cross shard boundaries — so global feasibility matches the unsharded
// scheduler's.
//
// Determinism: shard solves run concurrently but share no mutable
// state — each shard writes its own assignment map and its own
// partition of the pending-resource table (candidates never leave the
// shard, so the index sets are disjoint) — and results are merged on
// the driving goroutine in fixed shard order after the join. Every
// source of randomness (each shard's ρ-shuffle rng, the overflow
// pass's rng) is seeded from the run seed and consumed in a fixed
// order, so a given (scenario, seed, K) replays byte-identically
// regardless of goroutine interleaving. With K=1 the layer degenerates
// to a plain sequential DSS-LC pass-through — same rng stream, same
// solve interleave, same placements as a bare dsslc.Scheduler (asserted
// in internal/check) — and that is core's default LC dispatcher.
package shard

import (
	"runtime"
	"sync"

	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/res"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Batch is one cluster's LC queue for this dispatcher round.
type Batch struct {
	Cluster topo.ClusterID
	Reqs    []*engine.Request
}

// overflowGroup records one (cluster, type) overflow set captured from a
// shard solve, as offsets into the shard's overflow arena.
type overflowGroup struct {
	c          topo.ClusterID
	start, end int
}

// shardState is one shard's private scheduling state. Everything here
// is touched only by the goroutine currently running the shard (and by
// the driver before fan-out / after join).
type shardState struct {
	idx      int
	clusters int
	inner    *dsslc.Scheduler
	assign   dsslc.Assignment
	batches  []Batch
	ovReqs   []*engine.Request
	ovGroups []overflowGroup
	touched  []topo.NodeID
	overflow int64
}

// Scheduler coordinates the sharded round. It is driven from a single
// goroutine (the simulator's dispatcher); the internal worker pool is
// joined before ScheduleRound returns.
type Scheduler struct {
	Engine *engine.Engine

	// Observers, wired per round. In single-shard mode they attach to
	// the inner scheduler directly (full per-decision audit, exactly as
	// unsharded). In multi-shard mode per-decision tracing inside the
	// concurrent solves is disabled — emission order would depend on
	// goroutine interleaving — and the layer instead emits one
	// EvFlowSolve per batch after the join, in batch order; OnSolve is
	// serialized through a mutex so core.Verifier's flow checks still
	// observe every solve; the sequential overflow pass gets the full
	// observer set.
	Tracer     *obs.Tracer
	OnDecision func(obs.Decision)
	OnSolve    func(g *flow.Graph, src, sink int, r flow.Result)
	Prof       *perf.Profiler

	// Rounds counts ScheduleRound calls; OverflowRouted the requests
	// that crossed shards through the overflow pass.
	Rounds         int64
	OverflowRouted int64

	shards  []*shardState
	shardOf []int // ClusterID -> shard index
	workers int

	ov        *dsslc.Scheduler // cross-shard overflow pass
	ovAssign  dsslc.Assignment
	ovTouched []topo.NodeID

	// pending[n] is resource demand assigned toward node n this round
	// but not yet dispatched into the engine. Shards read and write
	// only their own region's entries during the parallel phase; the
	// overflow pass (sequential) reads and writes any entry.
	pending []res.Vector
}

// New builds a sharded scheduler with k shards solving on up to
// `workers` concurrent goroutines (workers <= 0 means GOMAXPROCS).
// Seeds derive from seed so that k=1 consumes the exact rng stream the
// unsharded dsslc.New(e, seed) would.
func New(e *engine.Engine, seed int64, k, workers int) *Scheduler {
	if k < 1 {
		k = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t := e.Topology()
	s := &Scheduler{
		Engine:   e,
		shardOf:  t.PartitionClusters(k),
		workers:  workers,
		pending:  make([]res.Vector, len(t.Nodes)),
		ovAssign: make(dsslc.Assignment),
	}
	counts := make([]int, k)
	for _, sh := range s.shardOf {
		counts[sh]++
	}
	for i := 0; i < k; i++ {
		st := &shardState{
			idx:      i,
			clusters: counts[i],
			inner:    dsslc.New(e, seed+int64(i)),
			assign:   make(dsslc.Assignment),
		}
		if k > 1 {
			st.inner.Restrict = func(c topo.ClusterID) bool { return s.shardOf[c] == st.idx }
			st.inner.Pending = s.pendingAt
			st.inner.OverflowSink = func(c topo.ClusterID, _ trace.TypeID, rs []*engine.Request) {
				// rs aliases the inner scheduler's pooled buffer: copy now.
				start := len(st.ovReqs)
				st.ovReqs = append(st.ovReqs, rs...)
				st.ovGroups = append(st.ovGroups, overflowGroup{c, start, len(st.ovReqs)})
			}
		}
		s.shards = append(s.shards, st)
	}
	// The overflow pass's rng is distinct from every shard's; the offset
	// keeps it clear of the seed+i range for any practical k.
	s.ov = dsslc.New(e, seed+1_000_003)
	s.ov.Pending = s.pendingAt
	return s
}

// Name implements the scheduler naming convention. Single-shard mode
// IS the unsharded algorithm — same rng stream, same solves, same
// placements — so it reports the plain name and stays report-identical
// to the unsharded dispatcher.
func (s *Scheduler) Name() string {
	if len(s.shards) == 1 {
		return "DSS-LC"
	}
	return "DSS-LC/sharded"
}

// NumShards returns the shard count.
func (s *Scheduler) NumShards() int { return len(s.shards) }

func (s *Scheduler) pendingAt(n topo.NodeID) res.Vector { return s.pending[n] }

// ScheduleRound routes one dispatcher round: every cluster's LC batch,
// scheduled shard-parallel, merged into out. deliver (optional) is
// invoked once per batch after that batch's assignments are in out —
// in single-shard mode immediately after each batch solves (the exact
// unsharded interleave of solve and dispatch), in multi-shard mode for
// all batches in their original order after the join and the overflow
// pass.
func (s *Scheduler) ScheduleRound(batches []Batch, out dsslc.Assignment, deliver func(Batch)) {
	s.Rounds++
	if len(s.shards) == 1 {
		s.roundSequential(batches, out, deliver)
		return
	}
	s.roundParallel(batches, out, deliver)
}

// roundSequential is the K=1 degenerate mode: a pass-through to one
// unrestricted DSS-LC instance, bit-identical to the unsharded path.
func (s *Scheduler) roundSequential(batches []Batch, out dsslc.Assignment, deliver func(Batch)) {
	st := s.shards[0]
	in := st.inner
	in.Tracer, in.OnDecision, in.OnSolve, in.Prof = s.Tracer, s.OnDecision, s.OnSolve, s.Prof
	for _, b := range batches {
		// A fresh map per batch keeps the inner scheduler's trace event
		// (whose Value is the assignment-map size) identical to the
		// unsharded dispatcher, which clears its map per cluster.
		clear(st.assign)
		in.ScheduleBatchInto(b.Cluster, b.Reqs, st.assign)
		for id, nid := range st.assign {
			out[id] = nid
		}
		if deliver != nil {
			deliver(b)
		}
	}
}

func (s *Scheduler) roundParallel(batches []Batch, out dsslc.Assignment, deliver func(Batch)) {
	// Fan out: group batches per shard in arrival order and reset
	// per-round state.
	for _, st := range s.shards {
		st.batches = st.batches[:0]
		st.ovReqs = st.ovReqs[:0]
		st.ovGroups = st.ovGroups[:0]
		st.touched = st.touched[:0]
		clear(st.assign)
	}
	for _, b := range batches {
		st := s.shards[s.shardOf[b.Cluster]]
		st.batches = append(st.batches, b)
	}
	var solveMu sync.Mutex
	for _, st := range s.shards {
		in := st.inner
		in.Tracer, in.OnDecision, in.Prof, in.OnSolve = nil, nil, nil, nil
		if h := s.OnSolve; h != nil {
			in.OnSolve = func(g *flow.Graph, src, sink int, r flow.Result) {
				solveMu.Lock()
				defer solveMu.Unlock()
				h(g, src, sink, r)
			}
		}
	}
	// Parallel phase on a bounded pool. Shards with no work are skipped
	// (empty shards exist when K approaches the cluster count).
	jobs := make(chan *shardState)
	var wg sync.WaitGroup
	nw := s.workers
	if nw > len(s.shards) {
		nw = len(s.shards)
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range jobs {
				s.runShard(st)
			}
		}()
	}
	for _, st := range s.shards {
		if len(st.batches) > 0 {
			jobs <- st
		}
	}
	close(jobs)
	wg.Wait()

	// Join: merge shard assignments in fixed shard order (key sets are
	// disjoint — every request belongs to exactly one batch and every
	// batch to exactly one shard — so the merged content is
	// deterministic).
	for _, st := range s.shards {
		for id, nid := range st.assign {
			out[id] = nid
		}
	}
	// Cross-shard overflow pass: sequential, shard order then capture
	// order, with the full observer set (it runs on the driving
	// goroutine). The unrestricted instance sees every geo-nearby
	// cluster, so overflow crosses shard boundaries — and chains across
	// several when a neighbor shard is itself saturated, via the
	// λ-scaled Ĝ'_k of its own case-2 split.
	ov := s.ov
	ov.Tracer, ov.OnDecision, ov.OnSolve, ov.Prof = s.Tracer, s.OnDecision, s.OnSolve, s.Prof
	for _, st := range s.shards {
		for _, gr := range st.ovGroups {
			rs := st.ovReqs[gr.start:gr.end]
			st.overflow += int64(len(rs))
			s.OverflowRouted += int64(len(rs))
			clear(s.ovAssign)
			ov.ScheduleBatchInto(gr.c, rs, s.ovAssign)
			for _, r := range rs {
				if nid, ok := s.ovAssign[r.ID]; ok {
					out[r.ID] = nid
					s.book(&s.ovTouched, nid, r.Type)
				}
			}
		}
	}
	// One flow-solve trace event per batch, in batch order, after the
	// join — deterministic regardless of solve interleaving.
	if tr := s.Tracer; tr.Enabled() {
		for _, b := range batches {
			assigned := 0
			for _, r := range b.Reqs {
				if _, ok := out[r.ID]; ok {
					assigned++
				}
			}
			tr.Emit(obs.Ev(obs.EvFlowSolve).Clu(int(b.Cluster)).Au(int64(len(b.Reqs))).Val(float64(assigned)))
		}
	}
	if deliver != nil {
		for _, b := range batches {
			deliver(b)
		}
	}
	// The engine now carries the booked demand as in-transit state;
	// drop the round's pending entries.
	for _, st := range s.shards {
		for _, nid := range st.touched {
			s.pending[nid] = res.Vector{}
		}
	}
	for _, nid := range s.ovTouched {
		s.pending[nid] = res.Vector{}
	}
	s.ovTouched = s.ovTouched[:0]
}

// runShard solves one shard's batches sequentially on a pool worker.
// After each batch the assigned demand is booked into the pending
// table so the shard's later batches (and the overflow pass) do not
// double-book capacity the engine has not seen dispatched yet.
func (s *Scheduler) runShard(st *shardState) {
	for _, b := range st.batches {
		st.inner.ScheduleBatchInto(b.Cluster, b.Reqs, st.assign)
		for _, r := range b.Reqs {
			if nid, ok := st.assign[r.ID]; ok {
				s.book(&st.touched, nid, r.Type)
			}
		}
	}
}

// book adds one request's effective demand to the pending table,
// recording first touches for end-of-round clearing.
func (s *Scheduler) book(touched *[]topo.NodeID, nid topo.NodeID, t trace.TypeID) {
	if s.pending[nid].IsZero() {
		*touched = append(*touched, nid)
	}
	s.pending[nid] = s.pending[nid].Add(s.Engine.Node(nid).EffectiveDemand(t))
}

// Stat is one shard's solver counters for the telemetry plane.
type Stat struct {
	Shard    int
	Clusters int
	Solves   uint64
	WarmHits uint64
	Overflow int64
}

// Stats snapshots per-shard counters (workspaces are nil until a
// shard's first solve; such shards report zero).
func (s *Scheduler) Stats() []Stat {
	out := make([]Stat, len(s.shards))
	for i, st := range s.shards {
		out[i] = Stat{Shard: i, Clusters: st.clusters, Overflow: st.overflow}
		if ws := st.inner.Workspace(); ws != nil {
			out[i].Solves, out[i].WarmHits = ws.Solves, ws.WarmHits
		}
	}
	return out
}

// SolverTotals aggregates solves and warm hits across shards and the
// overflow pass.
func (s *Scheduler) SolverTotals() (solves, warmHits uint64) {
	for _, st := range s.shards {
		if ws := st.inner.Workspace(); ws != nil {
			solves += ws.Solves
			warmHits += ws.WarmHits
		}
	}
	if ws := s.ov.Workspace(); ws != nil {
		solves += ws.Solves
		warmHits += ws.WarmHits
	}
	return solves, warmHits
}

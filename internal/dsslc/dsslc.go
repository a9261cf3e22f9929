// Package dsslc implements DSS-LC, the Distributed Service request
// Scheduling algorithm for LC requests (§5.2, Algorithm 2).
//
// Each master node runs its own instance (distributed scheduling — the
// paper measures >97 ms RTT to the central cluster, which would consume
// ~30% of a typical LC budget). For every LC request type k the
// algorithm builds a Multi-Commodity Network Flow graph over the local
// and geo-nearby clusters (footnote 4: within 500 km):
//
//   - worker capacity t_i^k = -min(r_ava^c/r^c_k, r_ava^m/r^m_k) (Eq. 2),
//     where the available resources follow the §4.1 regulations (idle
//     plus BE-held, since LC may preempt);
//   - edges carry the transmission delay t_delay and capacity c_ij;
//   - Google OR-Tools is replaced by the exact min-cost max-flow solver
//     in internal/flow.
//
// When demand exceeds capacity (Σ t_i^k > 0), requests are split by the
// random sorting function ρ into an immediate set R_k — routed on the
// availability graph Ĝ_k — and an overflow set R'_k routed on Ĝ'_k,
// whose capacities are the nodes' *total* resources scaled by the
// augmentation factor λ (Eq. 7–8), so overflow queues proportionally to
// the heterogeneous total capacity of each node.
//
// In the simulator one instance schedules every master's batch in turn:
// core's LC entry point, ScheduleRound, is the shard layer
// (internal/shard), whose default single shard passes each master's
// queue to ScheduleBatchInto. Capacities are read from live engine
// state, minus what earlier rounds sent toward a node and what this
// batch already assigned.
//
// The solve loop is the scheduler's hot path, so it is built around one
// reused flow.Graph + flow.Workspace per Scheduler: every route call
// Clears and rebuilds the graph inside the retained arenas, solves with
// flow.WarmStartAt (replaying the same commodity's previous first
// Dijkstra pass when the topology shape is unchanged), and all
// per-batch bookkeeping draws from pooled slices. ScheduleBatchInto is
// steady-state allocation-free when tracing is off (asserted by
// testing.AllocsPerRun in dsslc_test.go).
package dsslc

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/res"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Scheduler is one master's DSS-LC instance: ScheduleBatchInto routes
// that master's LC queue. Tango's LC traffic dispatcher drives it
// through the shard layer (internal/shard), whose ScheduleRound is the
// dispatcher's one LC entry point; one shard is the global DSS-LC.
type Scheduler struct {
	Engine *engine.Engine
	// GeoRadiusKm bounds candidate clusters (footnote 4; New sets
	// topo.GeoRadiusKm).
	GeoRadiusKm float64
	rng         *rand.Rand

	// Decisions counts batch solves, LastBatch the requests routed in the
	// most recent one (for the decision-time benchmarks).
	Decisions int64

	// Tracer, when set, receives one flow-solve event per batch
	// (Aux = batch size, Value = routed count) and one Decision audit
	// record per min-cost-flow solve, with the per-candidate Eq. 2–4
	// terms. OnDecision additionally receives each stamped audit record
	// (the SLO accountant subscribes here).
	Tracer     *obs.Tracer
	OnDecision func(obs.Decision)

	// Sharding hooks (internal/shard). Restrict, when set, filters the
	// geo-nearby candidate clusters: only neighbors it accepts
	// contribute workers (the home cluster always does). Pending, when
	// set, reports resources assigned toward a node by other schedulers
	// this period but not yet dispatched into the engine, so concurrent
	// shard solves and the cross-shard overflow pass do not double-book
	// capacity the engine cannot see yet. OverflowSink, when set,
	// receives each type's ρ-shuffled overflow set instead of the
	// scheduler routing it on Ĝ'_k — the shard layer re-routes those
	// requests across shard boundaries. The rs slice aliases a pooled
	// buffer, dead after the next ScheduleBatchInto call: sinks must
	// copy what they keep.
	Restrict     func(topo.ClusterID) bool
	Pending      func(topo.NodeID) res.Vector
	OverflowSink func(c topo.ClusterID, svc trace.TypeID, rs []*engine.Request)

	// OnSolve, when set, observes every min-cost-flow solve with the
	// solved residual graph still intact. core.Verifier hangs its flow
	// checks here (flow conservation, nonnegative flow and cost) so
	// verification runs cross-check the optimizer in situ without the
	// scheduler importing the checker.
	OnSolve func(g *flow.Graph, src, sink int, r flow.Result)

	// Prof, when set, charges MCNF graph construction to the
	// solve/graph-build phase and propagates into each solve graph so
	// the Dijkstra/augmentation split inside flow.MinCostFlow is
	// attributed too. Nil costs nothing.
	Prof *perf.Profiler

	// Solver arena: one graph rebuilt in place per solve and one
	// workspace feeding it pooled scratch plus the cross-period keyed
	// warm-start memos.
	g  *flow.Graph
	ws *flow.Workspace

	// Pooled hot-path buffers. All are scratch whose contents are dead
	// between ScheduleBatchInto calls; they grow to the high-water mark
	// of the run and are never released.
	candBuf   []*engine.Node
	grouped   []*engine.Request
	typeOff   []int32 // per-TypeID counts, then running offsets
	reserved  []res.Vector
	demand    []res.Vector
	caps      []int64
	totals    []int64
	scaled    []int64
	counts    []int64
	edges     []flow.EdgeID
	costs     []int64
	links     []int64
	fracs     fracSlice
	neighbors []topo.ClusterID
	// Single-entry cache for the geo-static neighbor-cluster list.
	neighborsFor topo.ClusterID
	neighborsKm  float64
	neighborsOK  bool
}

// New creates a DSS-LC scheduler with the paper's 500 km geo radius.
func New(e *engine.Engine, seed int64) *Scheduler {
	return &Scheduler{Engine: e, GeoRadiusKm: topo.GeoRadiusKm, rng: rand.New(rand.NewSource(seed))}
}

// Name reports the algorithm name.
func (s *Scheduler) Name() string { return "DSS-LC" }

// Workspace exposes the scheduler's solver workspace (nil until the
// first solve); benchmarks and tests read its Solves/WarmHits counters.
func (s *Scheduler) Workspace() *flow.Workspace { return s.ws }

// Assignment maps request IDs to chosen workers.
type Assignment map[int64]topo.NodeID

// ScheduleBatchInto routes every request in the batch (all from cluster
// c's LC queue) into out, a caller-provided assignment whose existing
// entries are kept, so a dispatcher draining queues every period reuses
// one cleared map. Requests of each type are handled independently (the
// "multi-commodity" structure); within a type the two cases of
// Algorithm 2 apply. With tracing off this path performs zero
// steady-state heap allocations.
func (s *Scheduler) ScheduleBatchInto(c topo.ClusterID, reqs []*engine.Request, out Assignment) {
	if len(reqs) == 0 {
		return
	}
	s.Decisions++
	if tr := s.Tracer; tr.Enabled() {
		defer func() {
			tr.Emit(obs.Ev(obs.EvFlowSolve).Clu(int(c)).Au(int64(len(reqs))).Val(float64(len(out))))
		}()
	}
	workers := s.candidates(c)
	if len(workers) == 0 {
		return
	}

	// Slice-backed grouping (replaces the old per-batch map + type
	// sort): a counting sort over the dense non-negative TypeID space
	// yields the types in ascending order with arrival order preserved
	// within each type — exactly the old iteration order, without the
	// map, the sort or their allocations.
	maxT := 0
	for _, r := range reqs {
		if int(r.Type) > maxT {
			maxT = int(r.Type)
		}
	}
	if cap(s.typeOff) < maxT+1 {
		s.typeOff = make([]int32, maxT+1)
	}
	off := s.typeOff[:maxT+1]
	for i := range off {
		off[i] = 0
	}
	for _, r := range reqs {
		off[r.Type]++
	}
	var pos int32
	for t := range off {
		n := off[t]
		off[t] = pos
		pos += n
	}
	if cap(s.grouped) < len(reqs) {
		s.grouped = make([]*engine.Request, len(reqs))
	}
	grouped := s.grouped[:len(reqs)]
	for _, r := range reqs {
		grouped[off[r.Type]] = r
		off[r.Type]++ // off[t] ends as the end offset of type t
	}

	// reserved tracks resources already assigned to earlier commodities
	// (request types) of this batch: the MCNF's node capacities are
	// shared across commodities, so each type sees what the previous
	// ones left behind.
	reserved := growVectors(&s.reserved, len(workers))
	demand := growVectors(&s.demand, len(workers))
	caps := growInt64s(&s.caps, len(workers))

	book := func(counts []int64) {
		for i, n := range counts {
			if n != 0 {
				reserved[i] = reserved[i].Add(demand[i].Scale(n, 1))
			}
		}
	}

	var start int32
	for t := 0; t <= maxT; t++ {
		end := off[t]
		if end == start {
			continue
		}
		rs := grouped[start:end]
		start = end
		svc := trace.TypeID(t)

		var capTotal int64
		for i, w := range workers {
			demand[i] = w.EffectiveDemand(svc)
			// Availability per §4.1 regulations (idle + BE-held), minus
			// what earlier dispatch rounds queued at or sent toward the
			// node and what this batch already assigned.
			avail := w.AvailableForLC().Sub(w.QueuedLCDemand()).Sub(w.InTransit()).Sub(reserved[i])
			if s.Pending != nil {
				avail = avail.Sub(s.Pending(w.ID))
			}
			avail = avail.Max(res.Vector{})
			caps[i] = avail.CapacityCount(demand[i])
			capTotal += caps[i]
		}
		if capTotal >= int64(len(rs)) {
			// Case 1: capacity covers demand; route on Ĝ_k.
			book(s.route(c, svc, obs.PhaseImmediate, rs, workers, caps, out))
			continue
		}
		// Case 2: split by the random sorting function ρ(·) — all LC
		// services share one priority in our scenario (§5.2.2).
		s.rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		immediate := rs[:capTotal]
		overflow := rs[capTotal:]
		if len(immediate) > 0 {
			book(s.route(c, svc, obs.PhaseImmediate, immediate, workers, caps, out))
		}
		if s.OverflowSink != nil {
			// The shard layer takes the overflow across shard boundaries
			// instead of queueing it on the local Ĝ'_k.
			s.OverflowSink(c, svc, overflow)
			continue
		}
		// Ĝ'_k: total-resource capacities scaled by λ (Eq. 7–8).
		totals := growInt64s(&s.totals, len(workers))
		var totSum int64
		for i, w := range workers {
			totals[i] = w.Capacity.CapacityCount(demand[i])
			totSum += totals[i]
		}
		need := int64(len(overflow))
		scaled := growInt64s(&s.scaled, len(workers))
		scaleToSumInto(scaled, &s.fracs, totals, totSum, need)
		book(s.route(c, svc, obs.PhaseOverflow, overflow, workers, scaled, out))
	}
}

// route solves one min-cost-flow instance: source → master (pending) →
// workers (capacity caps, cost = transmission delay) → sink, then
// assigns requests to workers according to the edge flows. It returns
// the per-worker assignment counts (a pooled slice, valid until the
// next route call) so the caller can book reservations.
func (s *Scheduler) route(c topo.ClusterID, svc trace.TypeID, phase string, rs []*engine.Request, workers []*engine.Node, caps []int64, out Assignment) []int64 {
	t := s.Engine.Topology()
	masterID := t.Cluster(c).Master
	s.Prof.Enter(perf.PhaseSolveGraphBuild)
	g := s.g
	if g == nil {
		g = flow.NewGraph()
		s.ws = flow.NewWorkspace()
		g.SetWorkspace(s.ws)
		s.g = g
	}
	g.SetProfiler(s.Prof)
	g.Clear()
	src := g.AddNode()
	master := g.AddNode()
	sink := g.AddNode()
	g.AddEdge(src, master, int64(len(rs)), 0)
	edges := growEdgeIDs(&s.edges, len(workers))
	costs := growInt64s(&s.costs, len(workers))
	links := growInt64s(&s.links, len(workers))
	for i, w := range workers {
		wn := g.AddNode()
		// Transmission delay in microseconds as the cost (Eq. 3).
		delayUS := int64(t.RTT(masterID, w.ID) / time.Microsecond)
		// Link transmission capacity c_ij (Eq. 4): bound the number of
		// requests the link can carry in one scheduling round.
		linkCap := t.LinkBandwidth(masterID, w.ID)
		if linkCap < 1 {
			linkCap = 1
		}
		costs[i], links[i] = delayUS, linkCap
		cap := caps[i]
		if cap > linkCap {
			cap = linkCap
		}
		edges[i] = g.AddEdge(master, wn, cap, delayUS)
		g.AddEdge(wn, sink, cap, 0)
	}
	s.Prof.Exit(perf.PhaseSolveGraphBuild)
	// Warm-started solve: across scheduling periods the rebuilt graph
	// usually has the same shape (same candidate workers, same RTT
	// costs, capacities varying only in magnitude), so the workspace
	// replays the previous period's first Dijkstra pass — results are
	// identical to a cold MinCostFlow either way. The memo is keyed by
	// (cluster, type, phase): a batch interleaves one solve per
	// commodity, and per-commodity entries stop those solves from
	// evicting each other's memos.
	key := uint64(c)<<32 | uint64(svc)<<1
	if phase == obs.PhaseOverflow {
		key |= 1
	}
	solved := g.WarmStartAt(key, src, sink, int64(len(rs)))
	if s.OnSolve != nil {
		s.OnSolve(g, src, sink, solved)
	}
	// Distribute requests over workers by flow amounts; any residual
	// (flow < len(rs), e.g. link caps bind) falls back to the local
	// cluster's least-loaded worker. counts is dense, indexed by worker
	// position, so candidate iteration order is explicit.
	counts := growInt64s(&s.counts, len(workers))
	ri := 0
	for i, e := range edges {
		f := g.Flow(e)
		counts[i] = f
		for ; f > 0 && ri < len(rs); f-- {
			out[rs[ri].ID] = workers[i].ID
			ri++
		}
	}
	routed := ri
	for ; ri < len(rs); ri++ {
		out[rs[ri].ID] = s.leastLoadedLocal(c)
	}
	if tr := s.Tracer; tr.Enabled() {
		d := obs.Decision{
			Algo: s.Name(), Phase: phase,
			Cluster: int(c), Svc: int(svc),
			Batch: len(rs), Routed: routed,
			GraphNodes: 3 + len(workers), GraphEdges: 1 + 2*len(workers),
			Candidates: make([]obs.Candidate, len(workers)),
		}
		for i, w := range workers {
			cand := obs.Candidate{Node: int(w.ID), Capacity: caps[i],
				CostUS: costs[i], LinkCap: links[i], Flow: counts[i]}
			switch {
			case counts[i] > 0:
			case caps[i] == 0:
				cand.Reject = obs.RejectNoCapacity
			case links[i] < caps[i]:
				cand.Reject = obs.RejectLinkLimited
			default:
				cand.Reject = obs.RejectNotChosen
			}
			d.Candidates[i] = cand
		}
		tr.EmitDecision(&d)
		// Every request of this solve — flow-routed or fallback — is
		// attributable to it.
		for _, r := range rs {
			r.DecisionID = d.ID
		}
		if s.OnDecision != nil {
			s.OnDecision(d)
		}
	}
	return counts
}

func (s *Scheduler) leastLoadedLocal(c topo.ClusterID) topo.NodeID {
	t := s.Engine.Topology()
	ws := t.WorkersOf(c)
	best, bestU := ws[0], 2.0
	for _, w := range ws {
		n := s.Engine.Node(w)
		if n.Down() {
			continue
		}
		if u := n.Utilization(); u < bestU {
			best, bestU = w, u
		}
	}
	return best
}

func (s *Scheduler) candidates(c topo.ClusterID) []*engine.Node {
	t := s.Engine.Topology()
	out := s.candBuf[:0]
	for _, w := range t.WorkersOf(c) {
		if n := s.Engine.Node(w); !n.Down() {
			out = append(out, n)
		}
	}
	for _, nc := range s.neighborsOf(t, c) {
		if s.Restrict != nil && !s.Restrict(nc) {
			continue
		}
		for _, w := range t.WorkersOf(nc) {
			if n := s.Engine.Node(w); !n.Down() {
				out = append(out, n)
			}
		}
	}
	s.candBuf = out
	return out
}

// neighborsOf caches the geo-nearby cluster list: cluster positions are
// static for the lifetime of a topology, so the list only changes when
// the scheduler is asked about a different cluster or radius.
func (s *Scheduler) neighborsOf(t *topo.Topology, c topo.ClusterID) []topo.ClusterID {
	if s.neighborsOK && s.neighborsFor == c && s.neighborsKm == s.GeoRadiusKm {
		return s.neighbors
	}
	s.neighbors = t.NeighborClustersInto(s.neighbors[:0], c, s.GeoRadiusKm)
	s.neighborsFor, s.neighborsKm, s.neighborsOK = c, s.GeoRadiusKm, true
	return s.neighbors
}

// growInt64s resizes a pooled int64 slice to n, zeroed.
func growInt64s(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
		return *buf
	}
	out := (*buf)[:n]
	for i := range out {
		out[i] = 0
	}
	return out
}

// growVectors resizes a pooled res.Vector slice to n, zeroed.
func growVectors(buf *[]res.Vector, n int) []res.Vector {
	if cap(*buf) < n {
		*buf = make([]res.Vector, n)
		return *buf
	}
	out := (*buf)[:n]
	for i := range out {
		out[i] = res.Vector{}
	}
	return out
}

// growEdgeIDs resizes a pooled EdgeID slice to n (contents overwritten
// by the caller).
func growEdgeIDs(buf *[]flow.EdgeID, n int) []flow.EdgeID {
	if cap(*buf) < n {
		*buf = make([]flow.EdgeID, n)
	}
	return (*buf)[:n]
}

// frac is one worker's fractional remainder in the largest-remainder
// rounding of scaleToSum.
type frac struct {
	i   int
	rem float64
}

// fracSlice sorts by remainder descending, index ascending — a total
// order, so any correct sort yields the same permutation the previous
// sort.Slice-based implementation produced.
type fracSlice []frac

func (f *fracSlice) Len() int      { return len(*f) }
func (f *fracSlice) Swap(i, j int) { (*f)[i], (*f)[j] = (*f)[j], (*f)[i] }
func (f *fracSlice) Less(i, j int) bool {
	a, b := (*f)[i], (*f)[j]
	if a.rem != b.rem {
		return a.rem > b.rem
	}
	return a.i < b.i
}

// scaleToSumInto scales vals (nonnegative, summing to totSum) so they
// sum to need, using the largest-remainder method — the integer
// realization of the augmentation factor λ = need/totSum of Eq. 8. It
// writes into out (len(out) == len(vals)) with fr as sorting scratch,
// so the scheduler's hot path reuses pooled buffers.
func scaleToSumInto(out []int64, fr *fracSlice, vals []int64, totSum, need int64) {
	for i := range out {
		out[i] = 0
	}
	if need <= 0 || len(vals) == 0 {
		return
	}
	if totSum <= 0 {
		// No capacity information: spread evenly.
		rem := need
		for i := range out {
			out[i] = rem / int64(len(out)-i)
			rem -= out[i]
		}
		return
	}
	*fr = (*fr)[:0]
	var sum int64
	for i, v := range vals {
		exact := float64(v) * float64(need) / float64(totSum)
		fl := int64(exact)
		out[i] = fl
		sum += fl
		*fr = append(*fr, frac{i, exact - float64(fl)})
	}
	sort.Sort(fr)
	for k := 0; sum < need; k++ {
		out[(*fr)[k%len(*fr)].i]++
		sum++
	}
}

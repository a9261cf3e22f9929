// Package dcgbe implements DCG-BE, the Deep-reinforcement-learning
// Customized algorithm based on Graph neural networks for centralized BE
// request scheduling (§5.3, Algorithm 3).
//
// The scheduler runs on the central cluster's master. For every BE
// request it builds the global graph state (per-node features: available
// CPU/memory, total CPU/memory, current slack score, and the request's
// CPU/memory demand; per-edge: transmission latency and capacity, folded
// into the topology graph), encodes it with a GraphSAGE network (L = 2
// aggregations, p-neighbour sampling), and lets an A2C agent choose the
// target node. A policy context-filtering mask zeroes the probability of
// nodes whose free resources cannot host the request. The reward is
// r = r_short + η·r_long (η = 1): the short-term term penalizes queue
// pressure at the chosen node (e^-max(ΣCPU/cap, Σmem/cap)); the
// long-term term rewards completed BE work across the fleet since the
// previous training interval (1 − e^−Σ(...)).
//
// Swapping the encoder (GCN / GAT / Native) or the agent (discrete SAC)
// reproduces the ablations of Figure 11(c,d).
package dcgbe

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/engine"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/perf"
	"repro/internal/res"
	"repro/internal/rl"
	"repro/internal/topo"
	"repro/internal/trace"
)

// FeatureDim is the per-node state size (§5.3.1).
const FeatureDim = 7

// EmbDim is the encoder output width.
const EmbDim = 32

// maxTrainBatch bounds the transitions used per training interval;
// larger intervals are stride-subsampled. This keeps the per-decision
// training cost constant at scale (the paper trains on GPU; this
// reproduction runs the networks on the CPU).
const maxTrainBatch = 32

// Agent abstracts A2C vs SAC for the pairing experiments. The slice
// Probs returns may be owned by the agent, valid until its next Probs
// or Update.
type Agent interface {
	Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64
	Update(batch []rl.Transition) rl.Stats
}

// Scheduler is the centralized BE dispatcher policy. Every Pick runs
// one inference over the current fleet state. GraphSAGE draws its
// neighbour samples once per policy version (the encoder's optimizer
// step count), so the picks of one training interval share the samples
// that train re-forwards them with, and training moves to a fresh draw.
// Each BE type's state is rewritten in one reused matrix, which lets
// A2C's per-input cache recompute only the nodes whose state changed
// since that type's previous pick.
type Scheduler struct {
	Engine *engine.Engine
	Agent  Agent
	// Eta weighs the long-term reward (η = 1 in the paper).
	Eta float64
	// SlackFn supplies the per-node slack score feature (wired to the
	// QoS re-assurer by core; defaults to zero).
	SlackFn func(topo.NodeID) float64
	// AllowFn, when set, restricts the candidate set before the context
	// filter (e.g. the DSACO baseline limits LC offloading to geo-nearby
	// clusters). Nodes with AllowFn == false are masked out.
	AllowFn func(r *engine.Request, n *engine.Node) bool
	// DisableMasking turns off policy context filtering (ablation
	// bench): the agent may pick nodes that cannot host the request.
	DisableMasking bool
	// Prof, when set, charges Agent.Probs to the be/infer phase and
	// Agent.Update to be/train (wired by core to Options.Profiler).
	Prof *perf.Profiler

	// trainEvery is N̂, the number of actions between training
	// intervals: 32, or 4N on fleets above 32 workers, which train over
	// longer (subsampled) intervals so per-decision cost stays flat.
	trainEvery int

	name  string
	graph *gnn.Graph
	nodes []*engine.Node
	index map[topo.NodeID]int
	// feats holds one state matrix per request demand (one per BE type),
	// and mask the context filter, both rewritten on every pick.
	feats []demandState
	mask  []bool
	// picks counts the actions of the current training interval, and
	// pending holds the ones its batch takes, with their own copies of
	// the state.
	picks   int
	pending []pendingReward
	// completedWork accumulates Σ (cpu/cap + mem/cap) of BE completions
	// since the last training interval (the r_long numerator).
	completedWork float64
	maxCPU        float64
	maxMem        float64
	// Updates counts trainings; Decisions counts scheduling actions.
	// CacheHits counts the decisions whose inference was served from a
	// warm cache, recomputing only the nodes its state change reached,
	// rather than a full forward over every node; RowsRecomputed counts
	// the node rows the actor computed over all decisions (a full
	// forward is one per node). Both stay 0 unless the agent is the A2C
	// NewVariant built.
	Updates        int64
	Decisions      int64
	CacheHits      int64
	RowsRecomputed int64

	a2c *rl.A2C    // the A2C agent NewVariant built, for its counters
	rng *rand.Rand // the pick draw
}

// demandState is the reused state matrix for one request demand.
type demandState struct {
	cpu, mem int64
	x        *nn.Mat
}

type pendingReward struct {
	tr     rl.Transition
	rShort float64
}

// Variant selects encoder/agent combinations.
type Variant struct {
	Encoder string // "sage" (default), "gcn", "gat", "native"
	Agent   string // "a2c" (default), "sac"
}

// New builds DCG-BE with the paper's configuration (GraphSAGE + A2C,
// p = 3 sampled neighbours, η = 1, 256/128/32 heads).
func New(e *engine.Engine, seed int64) *Scheduler {
	return NewVariant(e, Variant{}, seed)
}

// NewVariant builds a DCG-BE ablation variant.
func NewVariant(e *engine.Engine, v Variant, seed int64) *Scheduler {
	rng := rand.New(rand.NewSource(seed))
	var enc gnn.Encoder
	switch v.Encoder {
	case "", "sage":
		enc = gnn.NewSAGE(rng, 3, FeatureDim, EmbDim, EmbDim)
	case "gcn":
		enc = gnn.NewGCN(rng, FeatureDim, EmbDim, EmbDim)
	case "gat":
		enc = gnn.NewGAT(rng, FeatureDim, EmbDim, EmbDim)
	case "native":
		enc = gnn.NewNative(rng, FeatureDim, EmbDim, EmbDim)
	default:
		panic(fmt.Sprintf("dcgbe: unknown encoder %q", v.Encoder))
	}
	var ag Agent
	var a2c *rl.A2C
	agName := v.Agent
	switch v.Agent {
	case "", "a2c":
		a2c = rl.NewA2C(enc, EmbDim, rng)
		ag, agName = a2c, "a2c"
	case "sac":
		ag = rl.NewSAC(enc, EmbDim, rng)
	default:
		panic(fmt.Sprintf("dcgbe: unknown agent %q", v.Agent))
	}
	name := "DCG-BE"
	if agName == "sac" {
		name = "GNN-SAC"
	} else if v.Encoder != "" && v.Encoder != "sage" {
		name = fmt.Sprintf("DCG-BE/%s", v.Encoder)
	}

	s := &Scheduler{
		Engine: e, Agent: ag, Eta: 1, trainEvery: 32,
		name:  name,
		a2c:   a2c,
		index: map[topo.NodeID]int{},
		rng:   rand.New(rand.NewSource(seed + 7)),
	}
	s.nodes = e.Nodes()
	if n := len(s.nodes); n > 32 {
		s.trainEvery = 4 * n
	}
	for i, n := range s.nodes {
		s.index[n.ID] = i
		if c := float64(n.Capacity.MilliCPU); c > s.maxCPU {
			s.maxCPU = c
		}
		if m := float64(n.Capacity.MemoryMiB); m > s.maxMem {
			s.maxMem = m
		}
	}
	s.graph = buildGraph(e.Topology(), s.nodes, s.index)
	return s
}

// buildGraph connects workers within a cluster pairwise (LAN) and links
// each cluster to its topo.Topology.Neighbors through their first
// workers (WAN), giving GraphSAGE a topology that mirrors the
// LAN/WAN structure.
func buildGraph(t *topo.Topology, nodes []*engine.Node, index map[topo.NodeID]int) *gnn.Graph {
	var edges [][2]int
	for _, c := range t.Clusters {
		ws := c.Workers
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				edges = append(edges, [2]int{index[ws[i]], index[ws[j]]})
			}
		}
	}
	for _, c := range t.Clusters {
		if len(c.Workers) == 0 {
			continue
		}
		// Each pair once (undirected): only neighbours with a higher ID.
		for _, nc := range t.Neighbors(c.ID) {
			other := t.Cluster(nc)
			if other.ID <= c.ID || len(other.Workers) == 0 {
				continue
			}
			edges = append(edges, [2]int{index[c.Workers[0]], index[other.Workers[0]]})
		}
	}
	return gnn.NewGraph(len(nodes), edges)
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// stateFeatures writes the N×7 state matrix for a request demand into
// that demand's reused matrix, allocated on its first pick, and returns
// it; it is valid until the next call for the same demand.
func (s *Scheduler) stateFeatures(cpuDem, memDem int64) *nn.Mat {
	var x *nn.Mat
	for _, d := range s.feats {
		if d.cpu == cpuDem && d.mem == memDem {
			x = d.x
			break
		}
	}
	if x == nil {
		x = nn.NewMat(len(s.nodes), FeatureDim)
		s.feats = append(s.feats, demandState{cpuDem, memDem, x})
	}
	for i, n := range s.nodes {
		// "Available" resources net of queued and in-transit commitments
		// — the state the paper's Prometheus/state-storage pipeline
		// reports, rather than the instantaneous cgroup reading.
		free := n.Free().Sub(n.InTransit()).Sub(n.QueuedDemand()).Max(res.Vector{})
		row := x.Row(i)
		row[0] = float64(free.MilliCPU) / s.maxCPU
		row[1] = float64(free.MemoryMiB) / s.maxMem
		row[2] = float64(n.Capacity.MilliCPU) / s.maxCPU
		row[3] = float64(n.Capacity.MemoryMiB) / s.maxMem
		if s.SlackFn != nil {
			row[4] = s.SlackFn(n.ID)
		}
		row[5] = float64(cpuDem) / s.maxCPU
		row[6] = float64(memDem) / s.maxMem
	}
	return x
}

// Pick implements sched.Scheduler: it chooses the target node for one BE
// request, records the transition, and trains every N̂ actions.
func (s *Scheduler) Pick(r *engine.Request, _ []*engine.Node) (topo.NodeID, bool) {
	if len(s.nodes) == 0 {
		return 0, false
	}
	x, mask, ok := s.buildState(r)
	if !ok {
		return 0, false
	}
	s.Prof.Enter(perf.PhaseBEInfer)
	probs := s.Agent.Probs(s.graph, x, mask)
	s.Prof.Exit(perf.PhaseBEInfer)
	if s.a2c != nil {
		s.CacheHits, s.RowsRecomputed = s.a2c.WarmHits, s.a2c.ActorRows
	}
	return s.record(x, mask, s.choose(probs))
}

// buildState assembles the feature matrix and the context-filter mask,
// both reused (see stateFeatures). ok is false when no node may take
// the request at all.
func (s *Scheduler) buildState(r *engine.Request) (*nn.Mat, []bool, bool) {
	demand := r.SType.MinDemand
	x := s.stateFeatures(demand.MilliCPU, demand.MemoryMiB)
	if s.DisableMasking {
		return x, nil, true
	}
	// Policy context filtering: mask nodes that cannot host the request.
	if s.mask == nil {
		s.mask = make([]bool, len(s.nodes))
	}
	mask := s.mask
	anyValid := false
	for i, n := range s.nodes {
		mask[i] = false
		if n.Down() {
			continue
		}
		if s.AllowFn != nil && !s.AllowFn(r, n) {
			continue
		}
		if n.Free().Fits(n.EffectiveDemand(r.Type)) {
			mask[i] = true
			anyValid = true
		}
	}
	if !anyValid {
		// Fall back to every live node the geographic restriction (if
		// any) allows, ignoring the fit filter; the request queues there.
		for i, n := range s.nodes {
			if !n.Down() && (s.AllowFn == nil || s.AllowFn(r, n)) {
				mask[i] = true
				anyValid = true
			}
		}
		if !anyValid {
			return nil, nil, false
		}
	}
	return x, mask, true
}

// choose samples the target from the distribution. Sampling never
// returns a masked (p = 0) node, even when rounding leaves Σp below the
// drawn value.
func (s *Scheduler) choose(probs []float64) int { return rl.Sample(s.rng, probs) }

// record books the transition when the training batch takes it, trains
// on schedule, and returns the pick.
func (s *Scheduler) record(x *nn.Mat, mask []bool, a int) (topo.NodeID, bool) {
	s.Decisions++
	chosen := s.nodes[a]
	if s.batchTakes(s.picks) {
		tr := rl.Transition{Graph: s.graph, X: x.Clone(), Mask: slices.Clone(mask), Action: a}
		s.pending = append(s.pending, pendingReward{tr: tr, rShort: s.shortReward(chosen)})
	}
	s.picks++
	if s.picks >= s.trainEvery {
		s.train()
	}
	return chosen.ID, true
}

// batchTakes reports whether the training batch takes the interval's
// k-th pick (from 0): every pick when an interval fits in one batch,
// otherwise the stride subsample of maxTrainBatch picks. Training fires
// after exactly trainEvery picks, so the subsample is known at pick
// time, and the picks it skips keep no copy of their state.
func (s *Scheduler) batchTakes(k int) bool {
	if s.trainEvery <= maxTrainBatch {
		return true
	}
	n := len(s.pending)
	stride := float64(s.trainEvery) / float64(maxTrainBatch)
	return n < maxTrainBatch && k == int(float64(n)*stride)
}

// shortReward is e^-max(Σ cpu_q / cap, Σ mem_q / cap) over the requests
// waiting at node i (§5.3.1).
func (s *Scheduler) shortReward(n *engine.Node) float64 {
	var cpuSum, memSum float64
	// Waiting queue pressure; running requests count toward usage too,
	// which the exponent folds in through free-resource depletion.
	lcq, beq := n.QueueLen()
	queued := lcq + beq
	// Approximate queue demand with the node's average demand per queued
	// request (per-type queue contents are engine-internal).
	if queued > 0 {
		cat := s.Engine.Catalog()
		var c, m int64
		for _, t := range cat.Types {
			c += t.MinDemand.MilliCPU
			m += t.MinDemand.MemoryMiB
		}
		avgC := float64(c) / float64(len(cat.Types))
		avgM := float64(m) / float64(len(cat.Types))
		cpuSum = avgC * float64(queued)
		memSum = avgM * float64(queued)
	}
	cpuSum += float64(n.Used().MilliCPU)
	memSum += float64(n.Used().MemoryMiB)
	load := math.Max(cpuSum/float64(n.Capacity.MilliCPU), memSum/float64(n.Capacity.MemoryMiB))
	return math.Exp(-load)
}

// NotifyOutcome feeds BE completions into the long-term reward
// accumulator. Wire it into the engine's outcome fan-out.
func (s *Scheduler) NotifyOutcome(o engine.Outcome) {
	if o.Req.Class != trace.BE || !o.Completed || o.Req.Target < 0 {
		return
	}
	n := s.Engine.Node(o.Req.Target)
	d := o.Req.SType.MinDemand
	s.completedWork += float64(d.MilliCPU)/float64(n.Capacity.MilliCPU) +
		float64(d.MemoryMiB)/float64(n.Capacity.MemoryMiB)
}

// train finalizes rewards for the picks the interval's batch took and
// updates the agent.
func (s *Scheduler) train() {
	s.picks = 0
	if len(s.pending) == 0 {
		return
	}
	rLong := 1 - math.Exp(-s.completedWork)
	s.completedWork = 0
	batch := make([]rl.Transition, len(s.pending))
	for i, p := range s.pending {
		p.tr.Reward = p.rShort + float64(s.Eta*rLong)
		batch[i] = p.tr
	}
	s.pending = s.pending[:0]
	s.Prof.Enter(perf.PhaseBETrain)
	s.Agent.Update(batch)
	s.Prof.Exit(perf.PhaseBETrain)
	s.Updates++
}

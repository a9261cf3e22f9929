package flow

// The solver workspace: pooled scratch state that makes the MCNF hot
// path steady-state allocation-free and carries the cross-period
// warm-start memos.
//
// Every MinCostFlow/WarmStartAt solve needs four node-indexed scratch
// arrays (Johnson potentials, tentative distances, and the shortest-path
// tree) plus a priority queue. Before the workspace, each solve built
// them from scratch and the queue was a container/heap with `any`
// boxing — four slice allocations plus one boxed item per heap push,
// all of it GC pressure inside the per-period DSS-LC solve loop. A
// Workspace owns those buffers and grows them monotonically, so a
// warmed solver performs zero heap allocations per solve (asserted with
// testing.AllocsPerRun by TestWarmedSolveAllocFree and
// TestWarmStartAtAllocFree; perfbench's alloc_mb tracks allocation end
// to end).
//
// The warm-start memo exploits a structural fact of the SSP solver: the
// first Dijkstra pass runs on the pristine graph with all-zero
// potentials, so its labels depend only on the graph shape — node
// count, arc order, arc costs and which arcs have positive capacity —
// and the source. Capacity *magnitudes* only matter later, during
// augmentation. Scheduling periods rebuild the same topology-shaped
// graph with fresh capacities, so the memoized first pass from the
// previous period can be replayed verbatim, skipping the most expensive
// Dijkstra of the solve. Because the replay restores the exact labels
// the cold solve would have computed, every subsequent augmentation and
// search is bit-identical: warm and cold solves return the same
// Result and the same per-edge flows (the differential sweep in
// internal/check proves this over hundreds of seeded graphs).
//
// The memos are keyed by the caller (WarmStartAt). A scheduler
// interleaving solves for many (cluster, type) commodities per period
// rebuilds a different graph shape per commodity; a single memo entry
// would be evicted by each rebuild. Keying the memo by the caller's
// commodity identity gives every commodity its own entry, so each one
// replays its own previous period. Table entries are created on first
// sight of a key and reused forever after; steady-state keyed solves
// allocate nothing. MinCostFlow touches no memo.

// pqItem is one entry of the solver's priority queue.
type pqItem struct {
	node int
	dist int64
}

// memoEdge is one arc of a warm-start memo's shape snapshot. `open`
// records whether the arc had positive capacity at capture time: the
// first Dijkstra pass sees only open arcs, so capacities may change
// magnitude between periods without invalidating the memo as long as
// the open/closed pattern is stable.
type memoEdge struct {
	from, to int32
	cost     int64
	open     bool
}

// memo is one memoized first Dijkstra pass: the shape snapshot that
// keys it and the labels that replay it.
type memo struct {
	valid    bool
	src      int
	n        int
	shape    []memoEdge
	dist     []int64
	prevNode []int
	prevArc  []int
}

// capture memoizes the first Dijkstra pass of a pristine solve.
func (m *memo) capture(g *Graph, src int, dist []int64, prevNode, prevArc []int) {
	m.src, m.n = src, len(g.adj)
	m.shape = m.shape[:0]
	for _, e := range g.edges {
		a := &g.adj[e.from][e.idx]
		m.shape = append(m.shape, memoEdge{
			from: int32(e.from), to: int32(a.to), cost: a.cost, open: a.cap > 0,
		})
	}
	m.dist = append(m.dist[:0], dist...)
	m.prevNode = append(m.prevNode[:0], prevNode...)
	m.prevArc = append(m.prevArc[:0], prevArc...)
	m.valid = true
}

// matches reports whether the memo's shape snapshot is exactly the
// graph's current (pristine) shape with the same source. A full
// structural compare, not a hash: O(E) against the Dijkstra it saves,
// and immune to collisions.
func (m *memo) matches(g *Graph, src int) bool {
	if m == nil || !m.valid || m.src != src || m.n != len(g.adj) || len(m.shape) != len(g.edges) {
		return false
	}
	for i, e := range g.edges {
		a := &g.adj[e.from][e.idx]
		me := m.shape[i]
		if int(me.from) != e.from || int(me.to) != a.to || me.cost != a.cost || me.open != (a.cap > 0) {
			return false
		}
	}
	return true
}

// Workspace pools the solver's scratch state across solves and across
// graphs. Attach one to a Graph with SetWorkspace; a single workspace
// must not be shared by concurrently-solving graphs (the sharded
// scheduler gives every shard its own graph + workspace pair for
// exactly this reason).
type Workspace struct {
	dist      []int64
	potential []int64
	prevNode  []int
	prevArc   []int
	heap      []pqItem

	// table holds the keyed warm-start memos (WarmStartAt), created
	// lazily per key.
	table map[uint64]*memo

	// Solves counts solves routed through this workspace; WarmHits the
	// subset that replayed a memo instead of running the first
	// Dijkstra. Exposed so tests and benchmarks can assert the warm
	// path is actually taken.
	Solves   uint64
	WarmHits uint64
}

// NewWorkspace returns an empty workspace; buffers are grown on first
// use and retained forever after.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow ensures the node-indexed scratch arrays can hold n entries.
func (ws *Workspace) grow(n int) {
	if cap(ws.dist) >= n {
		return
	}
	ws.dist = make([]int64, n)
	ws.potential = make([]int64, n)
	ws.prevNode = make([]int, n)
	ws.prevArc = make([]int, n)
}

// memoAt returns the keyed memo entry, creating it on first use. The
// map read on the steady-state path is allocation-free; only a key's
// first appearance allocates its entry.
func (ws *Workspace) memoAt(key uint64) *memo {
	if m, ok := ws.table[key]; ok {
		return m
	}
	if ws.table == nil {
		ws.table = make(map[uint64]*memo)
	}
	m := &memo{}
	ws.table[key] = m
	return m
}

// The priority queue is a hand-rolled index-based binary heap over the
// workspace's pqItem slice. It replicates container/heap's exact sift
// order (Push = append + sift-up; Pop = swap root/last + sift-down over
// the shrunk prefix), so the solver's pop sequence — and therefore its
// tie-breaking, per-edge flows and the replay digests — is unchanged
// from the container/heap implementation it replaces. What changed is
// the cost: no interface boxing, no `any` round-trips, no per-push
// allocation.

func pqPush(h *[]pqItem, it pqItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if s[j].dist >= s[parent].dist {
			break
		}
		s[parent], s[j] = s[j], s[parent]
		j = parent
	}
}

func pqPop(h *[]pqItem) pqItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].dist < s[j].dist {
			j = j2
		}
		if s[j].dist >= s[i].dist {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

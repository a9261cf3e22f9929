// Package flow is the network-flow optimization substrate that replaces
// Google OR-Tools in DSS-LC (§5.2). It provides an exact min-cost
// max-flow solver using successive shortest augmenting paths with
// Johnson potentials (Dijkstra search), which is exact for graphs with
// integral capacities and nonnegative arc costs — precisely the shape of
// the per-request-type MCNF graphs DSS-LC constructs (unit request flows,
// latency costs).
//
// The solver is built for reuse: a Graph's node and edge arenas survive
// Clear for the next period's rebuild, a Workspace (workspace.go) pools
// all per-solve scratch so a warmed solver allocates nothing, and
// WarmStartAt replays the keyed memo of the first Dijkstra pass when the
// rebuilt graph has the same shape as that key's previous solve —
// producing bit-identical results to the cold MinCostFlow while skipping
// its most expensive search.
package flow

import (
	"fmt"
	"math"

	"repro/internal/perf"
)

// EdgeID identifies an added edge for flow queries.
type EdgeID int

type arc struct {
	to   int
	cap  int64 // residual capacity
	cost int64
	rev  int // index of the reverse arc in adj[to]
}

// Graph is a directed flow network. Nodes are dense ints from AddNode.
type Graph struct {
	adj   [][]arc
	edges []struct{ from, idx int } // maps EdgeID -> arc location
	prof  *perf.Profiler
	ws    *Workspace

	// pristine is true while every arc still holds its original
	// capacity (after build, Clear or Reset; false once a solve pushes
	// flow). The warm-start memo is captured from and replayed onto
	// pristine graphs only.
	pristine bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{pristine: true} }

// SetProfiler attaches a phase profiler: subsequent solves charge their
// Dijkstra searches and augmentations to the solve/* phases. A nil
// profiler (the default) costs nothing.
func (g *Graph) SetProfiler(p *perf.Profiler) { g.prof = p }

// SetWorkspace attaches a reusable solver workspace. With a workspace,
// solves draw their scratch state from its pooled buffers (zero
// steady-state allocations) and pristine WarmStartAt solves feed its
// keyed warm-start memos. Without one, each solve uses a throwaway
// workspace.
func (g *Graph) SetWorkspace(ws *Workspace) { g.ws = ws }

// AddNode creates a node and returns its index.
func (g *Graph) AddNode() int {
	if n := len(g.adj); n < cap(g.adj) {
		// Re-extend into the arena kept by Clear: the previous inner
		// slice is truncated in place so its capacity is reused.
		g.adj = g.adj[:n+1]
		g.adj[n] = g.adj[n][:0]
		return n
	}
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddNodes creates n nodes and returns the index of the first.
func (g *Graph) AddNodes(n int) int {
	first := len(g.adj)
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return first
}

// AddEdge adds a directed edge with the given capacity and nonnegative
// cost, returning an EdgeID usable with Flow after solving.
func (g *Graph) AddEdge(from, to int, capacity, cost int64) EdgeID {
	if from < 0 || from >= len(g.adj) || to < 0 || to >= len(g.adj) {
		panic(fmt.Sprintf("flow: edge %d->%d out of range (n=%d)", from, to, len(g.adj)))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	if cost < 0 {
		panic("flow: negative cost (not supported by Dijkstra-based solver)")
	}
	g.adj[from] = append(g.adj[from], arc{to: to, cap: capacity, cost: cost, rev: len(g.adj[to])})
	g.adj[to] = append(g.adj[to], arc{to: from, cap: 0, cost: -cost, rev: len(g.adj[from]) - 1})
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, struct{ from, idx int }{from, len(g.adj[from]) - 1})
	return id
}

// Flow returns the amount of flow routed on edge id after a solve.
func (g *Graph) Flow(id EdgeID) int64 {
	if int(id) < 0 || int(id) >= len(g.edges) {
		panic(fmt.Sprintf("flow: edge id %d out of range", id))
	}
	e := g.edges[id]
	a := g.adj[e.from][e.idx]
	// flow = reverse arc residual capacity
	return g.adj[a.to][a.rev].cap
}

// Result summarizes a solve.
type Result struct {
	Flow int64 // total flow routed
	Cost int64 // total cost of the routed flow
}

// MinCostFlow routes up to maxFlow units from source to sink, minimizing
// total cost. Pass math.MaxInt64 as maxFlow for a min-cost max-flow.
// The graph retains the flow assignment for Flow queries. It never reads
// or writes a warm-start memo.
func (g *Graph) MinCostFlow(source, sink int, maxFlow int64) Result {
	return g.solve(source, sink, maxFlow, nil)
}

// WarmStartAt is MinCostFlow with a cross-period warm start keyed by the
// caller: when the graph is pristine and its shape (node count, arc
// order, costs and positive-capacity pattern) matches the workspace's
// memo for key from a previous solve with the same source, the first
// Dijkstra pass is replayed from the memo instead of recomputed. The
// replayed labels are exactly what the cold pass would produce —
// capacity magnitudes do not enter a Dijkstra over open arcs — so the
// solve trajectory, the Result and every per-edge flow are identical to
// MinCostFlow's. When the memo does not apply, WarmStartAt degrades to
// a cold solve and refreshes the memo for the next period.
//
// Solves with the same key share one memo; solves with different keys
// never evict each other. A scheduler interleaving many commodities per
// period keys each solve by its (cluster, type, phase) identity so every
// commodity warm-starts from its own previous period. Without a
// workspace attached it is a cold solve.
func (g *Graph) WarmStartAt(key uint64, source, sink int, maxFlow int64) Result {
	var m *memo
	if g.ws != nil {
		m = g.ws.memoAt(key)
	}
	return g.solve(source, sink, maxFlow, m)
}

// WarmedAt reports whether a WarmStartAt solve with key from source
// would currently replay the memoized first pass rather than run a cold
// Dijkstra.
func (g *Graph) WarmedAt(key uint64, source int) bool {
	return g.ws != nil && g.pristine && g.ws.table[key].matches(g, source)
}

// solve runs SSP. A non-nil m is the warm-start memo to replay from or
// capture into; nil means a cold solve that touches no memo.
func (g *Graph) solve(source, sink int, maxFlow int64, m *memo) Result {
	n := len(g.adj)
	if source < 0 || source >= n || sink < 0 || sink >= n {
		panic("flow: source/sink out of range")
	}
	if source == sink {
		return Result{}
	}
	prof := g.prof
	prof.Enter(perf.PhaseSolveMCNF)
	defer prof.Exit(perf.PhaseSolveMCNF)
	const inf = math.MaxInt64 / 4

	ws := g.ws
	if ws == nil {
		ws = &Workspace{}
	}
	ws.grow(n)
	ws.Solves++
	dist, potential := ws.dist[:n], ws.potential[:n]
	prevNode, prevArc := ws.prevNode[:n], ws.prevArc[:n]
	for i := range potential {
		potential[i] = 0
	}
	// The memo applies to the first iteration only: every later Dijkstra
	// runs on a residual network the memo knows nothing about. Capture,
	// conversely, happens on the first cold pass of a pristine warm
	// solve.
	useMemo := g.pristine && m.matches(g, source)
	capture := m != nil && g.pristine && !useMemo
	first := true
	var total Result

	for total.Flow < maxFlow {
		// Dijkstra on reduced costs (the Johnson-potential search).
		prof.Enter(perf.PhaseSolveDijkstra)
		if first && useMemo {
			copy(dist, m.dist[:n])
			copy(prevNode, m.prevNode[:n])
			copy(prevArc, m.prevArc[:n])
			ws.WarmHits++
		} else {
			for i := range dist {
				dist[i] = inf
				prevNode[i] = -1
			}
			dist[source] = 0
			ws.heap = ws.heap[:0]
			pqPush(&ws.heap, pqItem{source, 0})
			for len(ws.heap) > 0 {
				it := pqPop(&ws.heap)
				if it.dist > dist[it.node] {
					continue
				}
				u := it.node
				for ai := range g.adj[u] {
					a := &g.adj[u][ai]
					if a.cap <= 0 {
						continue
					}
					nd := dist[u] + a.cost + potential[u] - potential[a.to]
					if nd < dist[a.to] {
						dist[a.to] = nd
						prevNode[a.to] = u
						prevArc[a.to] = ai
						pqPush(&ws.heap, pqItem{a.to, nd})
					}
				}
			}
			if first && capture {
				m.capture(g, source, dist, prevNode, prevArc)
			}
		}
		first = false
		prof.Exit(perf.PhaseSolveDijkstra)
		if dist[sink] >= inf {
			break // no augmenting path
		}
		// SSP augmentation: fold distances into the potentials, find the
		// bottleneck and push flow along the shortest path.
		prof.Enter(perf.PhaseSolveAugment)
		for i := 0; i < n; i++ {
			if dist[i] < inf {
				potential[i] += dist[i]
			}
		}
		// Find bottleneck along the path.
		push := maxFlow - total.Flow
		for v := sink; v != source; v = prevNode[v] {
			a := g.adj[prevNode[v]][prevArc[v]]
			if a.cap < push {
				push = a.cap
			}
		}
		// Apply.
		for v := sink; v != source; v = prevNode[v] {
			u := prevNode[v]
			a := &g.adj[u][prevArc[v]]
			a.cap -= push
			g.adj[v][a.rev].cap += push
			total.Cost += push * a.cost
		}
		total.Flow += push
		prof.Exit(perf.PhaseSolveAugment)
	}
	if total.Flow > 0 {
		g.pristine = false
	}
	return total
}

// Reset clears all flow, restoring original capacities. The warm-start
// memos survive: a Reset graph is pristine again, so the next
// WarmStartAt with an unchanged shape replays the memoized first pass.
func (g *Graph) Reset() {
	for _, e := range g.edges {
		a := &g.adj[e.from][e.idx]
		r := &g.adj[a.to][a.rev]
		a.cap += r.cap
		r.cap = 0
	}
	g.pristine = true
}

// Clear empties the graph for the next period's rebuild while retaining
// the node and edge arenas: the outer adjacency slice, every node's arc
// slice and the edge table keep their capacity, so rebuilding the same
// topology allocates nothing in steady state.
func (g *Graph) Clear() {
	g.adj = g.adj[:0]
	g.edges = g.edges[:0]
	g.pristine = true
}

// Excess verification helpers (used by tests and callers that assert
// solution validity).

// Conservation checks that at every node other than source and sink,
// inflow equals outflow.
func (g *Graph) Conservation(source, sink int) error {
	n := len(g.adj)
	net := make([]int64, n)
	for _, e := range g.edges {
		a := g.adj[e.from][e.idx]
		f := g.adj[a.to][a.rev].cap
		net[e.from] -= f
		net[a.to] += f
	}
	for i := 0; i < n; i++ {
		if i == source || i == sink {
			continue
		}
		if net[i] != 0 {
			return fmt.Errorf("flow: conservation violated at node %d (net %d)", i, net[i])
		}
	}
	return nil
}

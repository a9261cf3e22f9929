package shard_test

import (
	"math/rand"
	"testing"

	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/res"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func newEngine(tp *topo.Topology) *engine.Engine {
	return engine.New(engine.Config{
		Sim: sim.New(), Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{},
	})
}

// makeBatches builds one LC batch per cluster with perReq requests
// each, with globally unique IDs and types cycling over the LC catalog.
func makeBatches(e *engine.Engine, tp *topo.Topology, perReq int) []shard.Batch {
	var out []shard.Batch
	id := int64(0)
	for _, c := range tp.Clusters {
		b := shard.Batch{Cluster: c.ID}
		for i := 0; i < perReq; i++ {
			b.Reqs = append(b.Reqs, e.NewRequest(trace.Request{
				ID: id, Type: trace.TypeID(int(id) % 5), Class: trace.LC, Cluster: c.ID,
			}))
			id++
		}
		out = append(out, b)
	}
	return out
}

func scaleTopo(clusters int, seed int64) *topo.Topology {
	cfg := topo.DefaultGenConfig(clusters)
	return topo.Generate(cfg, rand.New(rand.NewSource(seed)))
}

// TestSingleShardBitIdentical: K=1 must reproduce the unsharded DSS-LC
// dispatcher exactly — same rng stream, same solves, same assignment
// for every request.
func TestSingleShardBitIdentical(t *testing.T) {
	tp := scaleTopo(24, 5)
	const seed = 42
	// Heavy load so several clusters hit Algorithm 2's case 2 and
	// consume rng via the ρ-shuffle.
	e1, e2 := newEngine(tp), newEngine(tp)
	b1 := makeBatches(e1, tp, 40)
	b2 := makeBatches(e2, tp, 40)

	global := dsslc.New(e1, seed)
	want := make(dsslc.Assignment)
	tmp := make(dsslc.Assignment)
	for _, b := range b1 {
		clear(tmp)
		global.ScheduleBatchInto(b.Cluster, b.Reqs, tmp)
		for id, nid := range tmp {
			want[id] = nid
		}
	}

	sh := shard.New(e2, seed, 1, 4)
	got := make(dsslc.Assignment)
	sh.ScheduleRound(b2, got, nil)

	if len(got) != len(want) {
		t.Fatalf("sharded assigned %d requests, unsharded %d", len(got), len(want))
	}
	for id, nid := range want {
		if got[id] != nid {
			t.Fatalf("request %d: sharded -> node %d, unsharded -> node %d", id, got[id], nid)
		}
	}
}

// TestMultiShardDeterministic: identical setups with different worker
// counts (1 vs 4 goroutines) must produce identical assignments —
// results cannot depend on goroutine interleaving.
func TestMultiShardDeterministic(t *testing.T) {
	tp := scaleTopo(32, 9)
	const seed, k = 7, 4
	run := func(workers int) dsslc.Assignment {
		e := newEngine(tp)
		batches := makeBatches(e, tp, 30)
		sh := shard.New(e, seed, k, workers)
		sh.GeoRadiusKm = 1e9
		out := make(dsslc.Assignment)
		sh.ScheduleRound(batches, out, nil)
		return out
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatalf("1-worker run assigned %d, 4-worker run %d", len(a), len(b))
	}
	for id, nid := range a {
		if b[id] != nid {
			t.Fatalf("request %d: node %d with 1 worker, node %d with 4", id, nid, b[id])
		}
	}
}

// TestAllRequestsAssigned: sharding must preserve global feasibility —
// every request gets a placement, shard-local or via the overflow pass.
func TestAllRequestsAssigned(t *testing.T) {
	tp := scaleTopo(40, 3)
	e := newEngine(tp)
	batches := makeBatches(e, tp, 50)
	total := 0
	for _, b := range batches {
		total += len(b.Reqs)
	}
	sh := shard.New(e, 11, 4, 2)
	sh.GeoRadiusKm = 1e9
	out := make(dsslc.Assignment)
	sh.ScheduleRound(batches, out, nil)
	if len(out) != total {
		t.Fatalf("assigned %d of %d requests", len(out), total)
	}
}

// TestEmptyShards: more shards than clusters leaves some shards with no
// clusters; the round must still place everything and report stats for
// every shard.
func TestEmptyShards(t *testing.T) {
	b := topo.NewBuilder()
	caps := []res.Vector{res.V(8000, 16384, 500)}
	for i := 0; i < 3; i++ {
		b.AddCluster(30+float64(i)*0.5, 110, res.V(8000, 16384, 1000), caps)
	}
	tp := b.Build()
	e := newEngine(tp)
	batches := makeBatches(e, tp, 10)
	sh := shard.New(e, 1, 8, 4)
	if sh.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", sh.NumShards())
	}
	out := make(dsslc.Assignment)
	sh.ScheduleRound(batches, out, nil)
	if len(out) != 30 {
		t.Fatalf("assigned %d of 30 requests", len(out))
	}
	stats := sh.Stats()
	if len(stats) != 8 {
		t.Fatalf("Stats() returned %d shards, want 8", len(stats))
	}
	populated, empty := 0, 0
	for _, st := range stats {
		if st.Clusters == 0 {
			empty++
			if st.Solves != 0 {
				t.Fatalf("empty shard %d reports %d solves", st.Shard, st.Solves)
			}
		} else {
			populated++
		}
	}
	if populated != 3 || empty != 5 {
		t.Fatalf("populated/empty = %d/%d, want 3/5", populated, empty)
	}
}

// chainTopo builds three cluster groups on a west→east line: a starved
// origin group, a middle group with little headroom, and a far group
// holding nearly all capacity. With K=3 the bisection puts each group
// in its own shard.
func chainTopo() *topo.Topology {
	b := topo.NewBuilder()
	tiny := []res.Vector{res.V(600, 1024, 50)}   // ~1 request of type 0
	small := []res.Vector{res.V(1100, 1536, 50)} // ~2 requests
	big := make([]res.Vector, 6)
	for i := range big {
		big[i] = res.V(16000, 32768, 1000)
	}
	b.AddCluster(31.0, 110.0, res.V(8000, 16384, 1000), tiny) // shard 0 (origin)
	b.AddCluster(31.1, 110.2, res.V(8000, 16384, 1000), tiny)
	b.AddCluster(31.0, 112.0, res.V(8000, 16384, 1000), small) // shard 1 (middle)
	b.AddCluster(31.1, 112.2, res.V(8000, 16384, 1000), small)
	b.AddCluster(31.0, 114.0, res.V(8000, 16384, 1000), big) // shard 2 (far)
	b.AddCluster(31.1, 114.2, res.V(8000, 16384, 1000), big)
	return b.Build()
}

// TestOverflowCrossesMultipleShardBoundaries: a batch that swamps its
// origin shard, with the adjacent shard too small to absorb it, must
// spill through the overflow pass into the far shard — an overflow
// chain crossing two shard boundaries.
func TestOverflowCrossesMultipleShardBoundaries(t *testing.T) {
	tp := chainTopo()
	e := newEngine(tp)
	sh := shard.New(e, 17, 3, 3)
	sh.GeoRadiusKm = 1e9

	shardOf := tp.PartitionClusters(3) // the partition shard.New(e, _, 3, _) uses
	origin := tp.Clusters[0].ID
	farShard := shardOf[tp.Clusters[4].ID]
	if shardOf[origin] == farShard || shardOf[tp.Clusters[2].ID] == farShard {
		t.Fatalf("partition did not separate the three groups: shards %d/%d/%d",
			shardOf[origin], shardOf[tp.Clusters[2].ID], farShard)
	}

	var reqs []*engine.Request
	for i := 0; i < 60; i++ {
		reqs = append(reqs, e.NewRequest(trace.Request{
			ID: int64(i), Type: 0, Class: trace.LC, Cluster: origin,
		}))
	}
	out := make(dsslc.Assignment)
	sh.ScheduleRound([]shard.Batch{{Cluster: origin, Reqs: reqs}}, out, nil)

	if len(out) != len(reqs) {
		t.Fatalf("assigned %d of %d requests", len(out), len(reqs))
	}
	if sh.OverflowRouted == 0 {
		t.Fatal("no requests took the cross-shard overflow pass")
	}
	far := 0
	for _, nid := range out {
		if shardOf[e.Node(nid).Cluster] == farShard {
			far++
		}
	}
	if far == 0 {
		t.Fatal("overflow never crossed more than one shard boundary: far shard got nothing")
	}
}

// TestShardStatsAndTotals: per-shard solver counters surface through
// Stats and aggregate through SolverTotals.
func TestShardStatsAndTotals(t *testing.T) {
	tp := scaleTopo(16, 21)
	e := newEngine(tp)
	sh := shard.New(e, 5, 4, 2)
	sh.GeoRadiusKm = 1e9
	out := make(dsslc.Assignment)
	for round := 0; round < 3; round++ {
		clear(out)
		sh.ScheduleRound(makeBatches(e, tp, 8), out, nil)
	}
	var sum uint64
	for _, st := range sh.Stats() {
		sum += st.Solves
	}
	solves, warm := sh.SolverTotals()
	if solves == 0 {
		t.Fatal("no solves recorded")
	}
	if solves < sum {
		t.Fatalf("SolverTotals solves %d < per-shard sum %d", solves, sum)
	}
	// Identical rebuilds across rounds: rounds 2 and 3 should warm-hit.
	if warm == 0 {
		t.Fatal("no warm hits across repeated rounds")
	}
	if sh.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", sh.Rounds)
	}
}

// TestDeliverOrder: deliver must fire once per batch, in the original
// batch order, in both modes.
func TestDeliverOrder(t *testing.T) {
	tp := scaleTopo(12, 2)
	for _, k := range []int{1, 3} {
		e := newEngine(tp)
		batches := makeBatches(e, tp, 4)
		sh := shard.New(e, 1, k, 2)
		sh.GeoRadiusKm = 1e9
		out := make(dsslc.Assignment)
		var order []topo.ClusterID
		sh.ScheduleRound(batches, out, func(b shard.Batch) {
			order = append(order, b.Cluster)
		})
		if len(order) != len(batches) {
			t.Fatalf("k=%d: deliver fired %d times for %d batches", k, len(order), len(batches))
		}
		for i, b := range batches {
			if order[i] != b.Cluster {
				t.Fatalf("k=%d: deliver %d for cluster %d, want %d", k, i, order[i], b.Cluster)
			}
		}
	}
}

package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/res"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// ShardRound is one point of the scale suite: it builds the standard
// large-fleet round — nodes/20 clusters of exactly 20 workers each,
// 8 LC requests per cluster, in a 3° box whose ~437 km diagonal lies
// inside the 500 km geo radius so an unsharded solve really sees the
// whole fleet — and schedules it once, cold, through a K-shard
// scheduler. It returns the measured round time, the
// number of requests routed, and how many of them the cross-shard
// overflow pass re-routed. The shard-scale experiment sweeps it over
// fleet sizes and shard counts.
func ShardRound(seed int64, nodes, k int, measure func(func()) time.Duration) (el time.Duration, reqs, overflow int64) {
	const workersPerCluster, reqsPerCluster = 20, 8
	tp := topo.Generate(topo.GenConfig{
		Clusters: nodes / workersPerCluster, MinWorkers: workersPerCluster, MaxWorkers: workersPerCluster,
		MasterCap:    res.V(8000, 16384, 1000),
		WorkerCapMin: res.V(4000, 8192, 200), WorkerCapMax: res.V(16000, 32768, 1000),
		RegionSpreadDeg: 3, CenterLat: 32, CenterLon: 118,
	}, rand.New(rand.NewSource(seed)))
	// Fresh engine per point: every K schedules the identical cold round,
	// so a sweep isolates the restriction win and no point rides another
	// point's warm-start memo.
	e := engine.New(engine.Config{
		Sim: sim.New(), Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{},
	})
	sh := shard.New(e, seed, k, 0)
	var batches []shard.Batch
	for _, c := range tp.Clusters {
		b := shard.Batch{Cluster: c.ID}
		for i := 0; i < reqsPerCluster; i++ {
			b.Reqs = append(b.Reqs, e.NewRequest(trace.Request{
				ID: reqs, Type: trace.TypeID(i % 5), Class: trace.LC, Cluster: c.ID,
			}))
			reqs++
		}
		batches = append(batches, b)
	}
	out := make(dsslc.Assignment, reqs)
	el = measure(func() { sh.ScheduleRound(batches, out, nil) })
	return el, reqs, sh.OverflowRouted
}

// ShardScale sweeps the sharded scheduling layer's round throughput
// across shard counts on large generated fleets — the scale suite for
// ROADMAP item 2. The expected shape is superlinear single-core gains
// with K: each shard's MCNF candidate set is ~1/K of the fleet, and
// solve cost grows faster than linearly in graph size; a multi-core
// host adds the worker-pool speedup on top.
//
// The quick configuration runs the 10k-node fleet; paper-scale mode
// (VirtualClusters >= 100, the same knob Fig. 13 keys on) adds the
// 100k-node fleet, where shard counts below 8 are omitted — their
// per-batch graphs approach the entire 100k-worker fleet and would
// dominate the suite's wall time without adding information beyond
// the 10k points.
func ShardScale(cfg Config, measure func(func()) time.Duration) *Result {
	type sweep struct {
		nodes  int
		shards []int
	}
	sweeps := []sweep{{10_000, []int{1, 2, 4, 8}}}
	if cfg.VirtualClusters >= 100 {
		sweeps = append(sweeps, sweep{100_000, []int{8, 16, 32}})
	}
	tb := metrics.NewTable("Extension — sharded scheduler round throughput",
		"nodes", "shards", "round time", "requests/s", "cross-shard overflow")
	values := map[string]float64{}
	var notes []string
	for _, sw := range sweeps {
		var base float64
		for _, k := range sw.shards {
			el, reqs, overflow := ShardRound(cfg.Seed, sw.nodes, k, measure)
			rps := float64(reqs) / el.Seconds()
			tb.AddRowF(sw.nodes, k, el.Round(time.Millisecond), rps, overflow)
			values[fmt.Sprintf("rps_%dk_s%d", sw.nodes/1000, k)] = rps
			if base == 0 {
				base = rps
			}
			if k == sw.shards[len(sw.shards)-1] && base > 0 {
				notes = append(notes, fmt.Sprintf(
					"%d nodes: %d shards route %.1fx the requests/s of %d shard(s)",
					sw.nodes, k, rps/base, sw.shards[0]))
			}
		}
	}
	notes = append(notes,
		"single-core gains come from restriction (each shard's candidate graph is ~1/K of the fleet); a multi-core host adds the worker-pool speedup on top")
	return &Result{
		ID:     "shard-scale",
		Title:  "Sharded scheduler round-throughput sweep",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes:  notes,
	}
}

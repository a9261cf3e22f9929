package check_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/trace"
)

// shardDiffBound is the stated quality bound of the sharded scheduler:
// over the seeded instance sweep, sharded dispatch cost stays within
// 2.5x the global solve's. The divergence is real, not noise: when a
// shard saturates, the overflow pass pays WAN RTTs to neighbor shards
// where the global solve would queue on the local cluster's λ-scaled
// Ĝ'_k — the sharded layer trades dispatch cost for actually spreading
// the load. Measured distribution over this sweep: most instances land
// under 2.0x, worst observed 2.24x. Single-shard mode is exact.
const shardDiffBound = 2.5

// TestShardDifferentialSweep is the acceptance sweep: 256 seeded
// instances across shard counts, exact in single-shard mode, bounded
// divergence otherwise.
func TestShardDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("256-instance sweep is slow under -short")
	}
	shardCounts := []int{1, 2, 3, 4}
	var worst float64
	var overflowed int
	for seed := int64(0); seed < 256; seed++ {
		k := shardCounts[seed%int64(len(shardCounts))]
		res, err := check.ShardDiff(seed, k, shardDiffBound)
		if err != nil {
			t.Fatalf("seed %d k=%d: %v", seed, k, err)
		}
		if res.Overflow > 0 {
			overflowed++
		}
		if k > 1 && res.GlobalCostUS > 0 {
			if r := float64(res.ShardedCostUS) / float64(res.GlobalCostUS); r > worst {
				worst = r
			}
		}
	}
	t.Logf("worst sharded/global cost ratio: %.3f (bound %.2f); instances with cross-shard overflow: %d/256",
		worst, shardDiffBound, overflowed)
	if overflowed == 0 {
		t.Error("no instance exercised the cross-shard overflow pass; sweep load too light to be meaningful")
	}
}

// shardedReplayRun is replayRun on a generated 24-cluster topology with
// the sharded LC dispatcher.
func shardedReplayRun(t *testing.T, seed int64, shards int) (stream, report string, violations error) {
	t.Helper()
	tp := topo.Generate(topo.DefaultGenConfig(24), rand.New(rand.NewSource(99)))
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, replayHorizon, seed)
	gen.LCRatePerSec = 600
	gen.BERatePerSec = 15
	reqs := trace.Generate(gen)

	opts := core.Tango(tp, seed)
	opts.LCShards = shards
	opts.LCShardWorkers = 3
	ds := obs.NewDigestSink(nil)
	opts.TraceSink = ds
	opts.TraceTag = "replay-sharded"
	opts.Verify = true
	sys := core.New(opts)
	sys.Inject(reqs)
	sys.Run(replayHorizon + 2*time.Second)
	rep := sys.Report("tango", 0)
	if ds.Records() == 0 {
		t.Fatal("sharded replay run emitted no trace records")
	}
	return ds.Sum(), obs.ReportDigest(rep), sys.Verifier.Err()
}

// TestShardedReplayDeterministic: with sharding enabled (concurrent
// shard solves), same scenario + seed must still produce byte-identical
// stream and report digests — determinism survives the worker pool.
func TestShardedReplayDeterministic(t *testing.T) {
	s1, r1, v1 := shardedReplayRun(t, 42, 4)
	s2, r2, v2 := shardedReplayRun(t, 42, 4)
	if v1 != nil || v2 != nil {
		t.Fatalf("verifier violations during sharded replay: %v / %v", v1, v2)
	}
	if s1 != s2 {
		t.Fatalf("sharded runs, same seed, different stream digests:\n  %s\n  %s", s1, s2)
	}
	if r1 != r2 {
		t.Fatalf("sharded runs, same seed, different report digests:\n  %s\n  %s", r1, r2)
	}
}

// TestSingleShardSystemDigestsMatchUnsharded: the default LC scheduler
// (the sharded layer with K=1, hooks wired) must place every request
// exactly as a bare DSS-LC instance driven through core's batch adapter
// (no hooks) on a hot-cluster load heavy enough that Algorithm 2's
// ρ-split draws from the rng (a bare instance seeded differently
// diverges). Only
// the default carries the tracer, so the oracle is the ordered outcome
// sequence rather than the digests.
func TestSingleShardSystemDigestsMatchUnsharded(t *testing.T) {
	type outcome struct {
		id       int64
		target   topo.NodeID
		latency  time.Duration
		finished time.Duration
	}
	run := func(mk func(e *engine.Engine, seed int64) any) ([]outcome, error) {
		tp := topo.PhysicalTestbed()
		var clusters []topo.ClusterID
		for _, c := range tp.Clusters {
			clusters = append(clusters, c.ID)
		}
		gen := trace.DefaultGenConfig(clusters, trace.P3, replayHorizon, 42)
		gen.LCRatePerSec = 600
		gen.BERatePerSec = 15
		gen.ClusterWeights = []float64{6, 1, 1, 1}
		reqs := trace.Generate(gen)

		opts := core.Tango(tp, 42)
		opts.MakeLC = mk
		opts.TraceSink = obs.NullSink{}
		opts.Verify = true
		var outs []outcome
		opts.OnOutcome = func(o engine.Outcome) {
			outs = append(outs, outcome{o.Req.ID, o.Req.Target, o.Latency, o.FinishedAt})
		}
		sys := core.New(opts)
		sys.Inject(reqs)
		sys.Run(replayHorizon + 2*time.Second)
		return outs, sys.Verifier.Err()
	}
	def, vd := run(nil)
	bare, vb := run(func(e *engine.Engine, seed int64) any { return dsslc.New(e, seed) })
	if vd != nil || vb != nil {
		t.Fatalf("verifier violations: default %v / bare %v", vd, vb)
	}
	if len(def) == 0 || len(def) != len(bare) {
		t.Fatalf("outcome counts: default %d, bare DSS-LC %d", len(def), len(bare))
	}
	for i := range def {
		if def[i] != bare[i] {
			t.Fatalf("outcome %d diverges: default %+v, bare DSS-LC %+v", i, def[i], bare[i])
		}
	}
}

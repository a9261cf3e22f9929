package dsslc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/engine"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func env(workerCPU int64) (*sim.Simulator, *engine.Engine, *topo.Topology) {
	s := sim.New()
	b := topo.NewBuilder()
	w := []res.Vector{res.V(workerCPU, 8192, 500), res.V(workerCPU, 8192, 500)}
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), w)
	b.AddCluster(30.5, 120, res.V(8000, 16384, 1000), w) // ~55km, nearby
	b.AddCluster(45, 120, res.V(8000, 16384, 1000), w)   // far
	tp := b.Build()
	e := engine.New(engine.Config{Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}})
	return s, e, tp
}

func lcReqs(e *engine.Engine, n int, t trace.TypeID) []*engine.Request {
	var out []*engine.Request
	for i := 0; i < n; i++ {
		out = append(out, e.NewRequest(trace.Request{ID: int64(i), Type: t, Class: trace.LC, Cluster: 0}))
	}
	return out
}

// schedule routes one batch into a fresh assignment.
func schedule(s *Scheduler, c topo.ClusterID, reqs []*engine.Request) Assignment {
	out := make(Assignment, len(reqs))
	s.ScheduleBatchInto(c, reqs, out)
	return out
}

// scaleToSum is scaleToSumInto into fresh buffers.
func scaleToSum(vals []int64, totSum, need int64) []int64 {
	out := make([]int64, len(vals))
	var fr fracSlice
	scaleToSumInto(out, &fr, vals, totSum, need)
	return out
}

func TestSchedulesAllWithinCapacity(t *testing.T) {
	_, e, tp := env(4000)
	s := New(e, 1)
	reqs := lcReqs(e, 8, 3) // type 3: 1000m => 4 per worker, 8 local
	a := schedule(s, 0, reqs)
	if len(a) != 8 {
		t.Fatalf("assigned %d of 8", len(a))
	}
	// All should fit locally (min transmission delay).
	local := map[topo.NodeID]bool{}
	for _, w := range tp.Cluster(0).Workers {
		local[w] = true
	}
	for id, nid := range a {
		if !local[nid] {
			t.Fatalf("request %d sent to non-local node %d despite local capacity", id, nid)
		}
	}
}

func TestPrefersLocalOverNearby(t *testing.T) {
	_, e, tp := env(4000)
	s := New(e, 1)
	a := schedule(s, 0, lcReqs(e, 2, 1))
	for _, nid := range a {
		if e.Node(nid).Cluster != 0 {
			t.Fatalf("low load routed off-cluster to %d", nid)
		}
	}
	_ = tp
}

func TestSpillsToNearbyWhenLocalFull(t *testing.T) {
	_, e, tp := env(4000)
	// Fill local workers with LC load (type 3 reserves via usedLC).
	for _, w := range tp.Cluster(0).Workers {
		for i := int64(0); i < 4; i++ {
			e.DispatchLocal(e.NewRequest(trace.Request{ID: 1000 + i, Type: 3, Class: trace.LC, Cluster: 0}), w)
		}
	}
	s := New(e, 1)
	a := schedule(s, 0, lcReqs(e, 4, 3))
	if len(a) != 4 {
		t.Fatalf("assigned %d", len(a))
	}
	for id, nid := range a {
		c := e.Node(nid).Cluster
		if c == 0 {
			t.Fatalf("request %d stayed on full local cluster", id)
		}
		if c == 2 {
			t.Fatalf("request %d sent beyond the 500km geo radius", id)
		}
	}
}

func TestNeverSchedulesBeyondGeoRadius(t *testing.T) {
	_, e, _ := env(4000)
	s := New(e, 1)
	// Far more requests than local+nearby capacity: 16 slots for type 3.
	a := schedule(s, 0, lcReqs(e, 60, 3))
	if len(a) != 60 {
		t.Fatalf("assigned %d of 60", len(a))
	}
	for id, nid := range a {
		if e.Node(nid).Cluster == 2 {
			t.Fatalf("request %d escaped the geo radius", id)
		}
	}
}

func TestOverloadSplitsProportionallyToTotalCapacity(t *testing.T) {
	// Heterogeneous workers: one twice the size of the other. Overflow
	// should land ~2:1 by Eq. 7-8.
	sim0 := sim.New()
	b := topo.NewBuilder()
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), []res.Vector{
		res.V(8000, 16384, 500), // big
		res.V(4000, 8192, 500),  // small
	})
	tp := b.Build()
	e := engine.New(engine.Config{Sim: sim0, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}})
	// Saturate both workers' availability with LC work so avail capacity ~ 0.
	for _, w := range tp.Cluster(0).Workers {
		n := e.Node(w)
		k := n.Capacity.MilliCPU / 1000
		for i := int64(0); i < k; i++ {
			e.DispatchLocal(e.NewRequest(trace.Request{ID: 5000 + int64(w)*100 + i, Type: 3, Class: trace.LC, Cluster: 0}), w)
		}
	}
	s := New(e, 1)
	a := schedule(s, 0, lcReqs(e, 36, 3))
	if len(a) != 36 {
		t.Fatalf("assigned %d", len(a))
	}
	counts := map[topo.NodeID]int{}
	for _, nid := range a {
		counts[nid]++
	}
	big, small := tp.Cluster(0).Workers[0], tp.Cluster(0).Workers[1]
	if counts[big] <= counts[small] {
		t.Fatalf("overflow not proportional: big=%d small=%d", counts[big], counts[small])
	}
	// λ-scaling: 8:4 ratio → 24 and 12.
	if counts[big] != 24 || counts[small] != 12 {
		t.Fatalf("overflow split %d/%d, want 24/12", counts[big], counts[small])
	}
}

func TestRespectsEffectiveDemandOverrides(t *testing.T) {
	_, e, tp := env(4000)
	// Double type-1 demand on worker 1: its capacity halves.
	w0 := tp.Cluster(0).Workers[0]
	e.Node(w0).AllocOverride[1] = res.V(500, 512, 4)
	s := New(e, 1)
	a := schedule(s, 0, lcReqs(e, 24, 1)) // 250m default: 16/worker; w0 now 8
	counts := map[topo.NodeID]int{}
	for _, nid := range a {
		counts[nid]++
	}
	w1 := tp.Cluster(0).Workers[1]
	if counts[w0] >= counts[w1] {
		t.Fatalf("override ignored: w0=%d w1=%d", counts[w0], counts[w1])
	}
}

func TestEmptyBatch(t *testing.T) {
	_, e, _ := env(4000)
	s := New(e, 1)
	if a := schedule(s, 0, nil); len(a) != 0 {
		t.Fatal("nonempty assignment for empty batch")
	}
	if s.Decisions != 0 {
		t.Fatal("empty batch counted as decision")
	}
}

func TestSingleRequestBatch(t *testing.T) {
	_, e, _ := env(4000)
	s := New(e, 1)
	r := e.NewRequest(trace.Request{ID: 7, Type: 1, Class: trace.LC, Cluster: 0})
	id, ok := schedule(s, 0, []*engine.Request{r})[r.ID]
	if !ok {
		t.Fatal("single request not assigned")
	}
	if e.Node(id).Cluster != 0 {
		t.Fatal("single request not local under low load")
	}
}

func TestMixedTypesInOneBatch(t *testing.T) {
	_, e, _ := env(4000)
	s := New(e, 1)
	var reqs []*engine.Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, e.NewRequest(trace.Request{ID: int64(i), Type: trace.TypeID(i % 5), Class: trace.LC, Cluster: 0}))
	}
	a := schedule(s, 0, reqs)
	if len(a) != 5 {
		t.Fatalf("assigned %d of 5", len(a))
	}
	if s.Decisions != 1 {
		t.Fatalf("decisions = %d", s.Decisions)
	}
}

func TestScaleToSum(t *testing.T) {
	cases := []struct {
		vals []int64
		need int64
	}{
		{[]int64{8, 4}, 36},
		{[]int64{1, 1, 1}, 10},
		{[]int64{5, 0, 5}, 7},
		{[]int64{0, 0}, 4},
		{[]int64{3}, 1},
	}
	for _, c := range cases {
		var tot int64
		for _, v := range c.vals {
			tot += v
		}
		out := scaleToSum(c.vals, tot, c.need)
		var sum int64
		for _, v := range out {
			if v < 0 {
				t.Fatalf("negative share %v", out)
			}
			sum += v
		}
		if sum != c.need {
			t.Fatalf("scaleToSum(%v,%d) = %v (sum %d)", c.vals, c.need, out, sum)
		}
	}
	if out := scaleToSum(nil, 0, 5); len(out) != 0 {
		t.Fatal("nil vals should give empty")
	}
}

// Property: scaleToSum always sums exactly to need and is roughly
// proportional (no element exceeds its fair share by more than 1 unit
// when totSum > 0).
func TestQuickScaleToSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		vals := make([]int64, n)
		var tot int64
		for i := range vals {
			vals[i] = int64(rng.Intn(20))
			tot += vals[i]
		}
		need := int64(rng.Intn(100))
		out := scaleToSum(vals, tot, need)
		var sum int64
		for i, v := range out {
			if v < 0 {
				return false
			}
			sum += v
			if tot > 0 {
				fair := float64(vals[i]) * float64(need) / float64(tot)
				if float64(v) > fair+1 {
					return false
				}
			}
		}
		return sum == need
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every batched request receives an assignment to a worker
// inside the geo radius, for random loads and batch sizes.
func TestQuickAllAssignedWithinRadius(t *testing.T) {
	f := func(seed int64, batch uint8) bool {
		_, e, _ := env(4000)
		s := New(e, seed)
		k := int(batch%50) + 1
		a := schedule(s, 0, lcReqs(e, k, trace.TypeID(int(seed%5+5)%5)))
		if len(a) != k {
			return false
		}
		for _, nid := range a {
			if e.Node(nid).Cluster == 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: DSS-LC should beat round-robin on QoS when load is uneven.
func TestDSSLCBeatsRoundRobinOnQoS(t *testing.T) {
	run := func(useDSS bool) float64 {
		s := sim.New()
		b := topo.NewBuilder()
		w := []res.Vector{res.V(4000, 8192, 500), res.V(4000, 8192, 500)}
		b.AddCluster(30, 120, res.V(8000, 16384, 1000), w)
		b.AddCluster(30.4, 120, res.V(8000, 16384, 1000), w)
		tp := b.Build()
		var sat, tot int
		e := engine.New(engine.Config{
			Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{},
			LCAbandonFactor: 1,
			OnOutcome: func(o engine.Outcome) {
				tot++
				if o.Completed && o.Satisfied {
					sat++
				}
			},
		})
		dss := New(e, 5)
		rrIdx := 0
		reqs := trace.Generate(trace.GenConfig{
			Catalog: trace.DefaultCatalog(), Pattern: trace.P3, Duration: 15 * time.Second,
			LCRatePerSec: 60, BERatePerSec: 0, Clusters: []topo.ClusterID{0},
			ClusterWeights: []float64{1}, Seed: 9,
		})
		var pend []*engine.Request
		for _, r := range reqs {
			r := r
			s.Schedule(r.Arrival, func() { pend = append(pend, e.NewRequest(r)) })
		}
		// Dispatch in 50ms batches.
		drainEv := s.Every(50*time.Millisecond, func() {
			if len(pend) == 0 {
				return
			}
			if useDSS {
				a := schedule(dss, 0, pend)
				for _, r := range pend {
					e.Dispatch(r, a[r.ID])
				}
			} else {
				locals := tp.Cluster(0).Workers
				for _, r := range pend {
					e.Dispatch(r, locals[rrIdx%len(locals)])
					rrIdx++
				}
			}
			pend = nil
		})
		s.RunUntil(20 * time.Second)
		drainEv.Cancel()
		if tot == 0 {
			t.Fatal("no outcomes")
		}
		return float64(sat) / float64(tot)
	}
	dss := run(true)
	rr := run(false)
	t.Logf("DSS-LC qos=%.3f, round-robin qos=%.3f", dss, rr)
	if dss < rr {
		t.Fatalf("DSS-LC (%.3f) worse than round-robin (%.3f)", dss, rr)
	}
}

// TestScheduleBatchIntoAllocFree pins the scheduler-level allocation
// budget: after warm-up (pooled buffers grown, graph arena built,
// warm-start memo captured), a within-capacity batch schedules with
// zero heap allocations when tracing is off. TestWarmedSolveAllocFree
// and TestWarmStartAtAllocFree hold the solver beneath it to the same
// budget; perfbench's alloc_mb tracks allocation end to end.
func TestScheduleBatchIntoAllocFree(t *testing.T) {
	_, e, _ := env(16000)
	s := New(e, 1)
	// 64 type-3 requests exactly fill local+nearby capacity (4 workers ×
	// 16 slots), so every call takes the within-capacity route.
	reqs := lcReqs(e, 64, 3)
	out := make(Assignment, len(reqs))
	s.ScheduleBatchInto(0, reqs, out)
	if len(out) != 64 {
		t.Fatalf("warm-up assigned %d of 64", len(out))
	}
	allocs := testing.AllocsPerRun(100, func() {
		clear(out)
		s.ScheduleBatchInto(0, reqs, out)
	})
	if allocs != 0 {
		t.Fatalf("warmed ScheduleBatchInto allocates %.1f/op, want 0", allocs)
	}
	ws := s.Workspace()
	if ws == nil || ws.WarmHits == 0 {
		t.Fatal("warm-start memo never replayed across periods")
	}
	t.Logf("workspace: %d solves, %d warm hits", ws.Solves, ws.WarmHits)
}

// Same budget for the overflow path (capacity exceeded, ρ-split and
// λ-scaled second solve): still allocation-free, although the two
// per-batch solves have different graph shapes so the single-entry memo
// cannot replay.
func TestScheduleBatchIntoOverflowAllocFree(t *testing.T) {
	_, e, _ := env(16000)
	s := New(e, 1)
	reqs := lcReqs(e, 100, 3) // 100 > 64 slots: forces the ρ-split
	out := make(Assignment, len(reqs))
	s.ScheduleBatchInto(0, reqs, out)
	if len(out) != 100 {
		t.Fatalf("warm-up assigned %d of 100", len(out))
	}
	allocs := testing.AllocsPerRun(100, func() {
		clear(out)
		s.ScheduleBatchInto(0, reqs, out)
	})
	if allocs != 0 {
		t.Fatalf("warmed overflow ScheduleBatchInto allocates %.1f/op, want 0", allocs)
	}
}

// ScheduleBatchInto adds to the caller's map and keeps what is there:
// the shard layer merges batches of one round into a shared assignment.
// The added entries are exactly what a fresh map would receive.
func TestScheduleBatchIntoKeepsExistingEntries(t *testing.T) {
	_, e1, _ := env(4000)
	_, e2, _ := env(4000)
	fresh := schedule(New(e1, 7), 0, lcReqs(e1, 30, 3))
	into := Assignment{1000: 5, 1001: 6}
	New(e2, 7).ScheduleBatchInto(0, lcReqs(e2, 30, 3), into)
	if into[1000] != 5 || into[1001] != 6 {
		t.Fatalf("existing entries changed: %v", into)
	}
	if len(into) != len(fresh)+2 {
		t.Fatalf("sizes differ: %d vs %d+2", len(into), len(fresh))
	}
	for id, nid := range fresh {
		if into[id] != nid {
			t.Fatalf("request %d: fresh map -> %d, shared map -> %d", id, nid, into[id])
		}
	}
}

func BenchmarkScheduleBatchInto(b *testing.B) {
	_, e, _ := env(16000)
	s := New(e, 1)
	reqs := lcReqs(e, 100, 3)
	out := make(Assignment, len(reqs))
	s.ScheduleBatchInto(0, reqs, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		s.ScheduleBatchInto(0, reqs, out)
	}
}

package check_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Metamorphic properties of the DSS-LC scheduler (Algorithm 2): the
// chosen assignment — as per-(type,node) counts; requests of one type
// are interchangeable — must be invariant under (a) permuting the batch
// order and (b) scaling every Eq. 3 transmission-delay cost by a
// positive constant. Both transformations preserve every comparison the
// min-cost-flow solver makes, so a changed assignment would expose
// order- or scale-dependence sneaking into the hot path.

// metaTopo builds three co-located clusters (distance 0, so every WAN
// RTT is exactly WANBaseRTT) and scales the base RTTs by k: with no
// distance term, all Eq. 3 costs scale exactly by k.
func metaTopo(k time.Duration) *topo.Topology {
	b := topo.NewBuilder()
	caps := [][]res.Vector{
		{res.V(4000, 8192, 500), res.V(2000, 4096, 250)},
		{res.V(8000, 16384, 1000)},
		{res.V(4000, 8192, 500), res.V(4000, 8192, 500), res.V(2000, 4096, 250)},
	}
	for _, wc := range caps {
		b.AddCluster(31, 121, res.V(8000, 16384, 1000), wc)
	}
	tp := b.Build()
	tp.LANRTT *= k
	tp.WANBaseRTT *= k
	return tp
}

// metaBatch builds n LC requests over the catalog's LC types, in an
// order drawn from seed.
func metaBatch(e *engine.Engine, n int, seed int64) []*engine.Request {
	rng := rand.New(rand.NewSource(seed))
	lc := trace.DefaultCatalog().LCTypes()
	out := make([]*engine.Request, n)
	for i := range out {
		t := lc[rng.Intn(len(lc))]
		out[i] = e.NewRequest(trace.Request{
			ID: int64(i + 1), Type: t, Class: trace.LC, Cluster: 0,
		})
	}
	return out
}

// assignCounts reduces an assignment to per-(type,node) counts.
func assignCounts(reqs []*engine.Request, a dsslc.Assignment) map[string]int {
	types := map[int64]trace.TypeID{}
	for _, r := range reqs {
		types[r.ID] = r.Type
	}
	out := map[string]int{}
	for id, node := range a {
		out[fmt.Sprintf("t%d@n%d", types[id], node)]++
	}
	return out
}

func scheduleCounts(t *testing.T, rttScale time.Duration, batchSeed int64, permute bool, n int) map[string]int {
	t.Helper()
	s := sim.New()
	e := engine.New(engine.Config{
		Sim: s, Topo: metaTopo(rttScale), Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{},
	})
	sched := dsslc.New(e, 99)
	reqs := metaBatch(e, n, batchSeed)
	if permute {
		rng := rand.New(rand.NewSource(batchSeed + 7))
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	}
	a := dsslc.Assignment{}
	sched.ScheduleBatchInto(0, reqs, a)
	if len(a) != n {
		t.Fatalf("assigned %d of %d requests", len(a), n)
	}
	return assignCounts(reqs, a)
}

func diffCounts(t *testing.T, label string, a, b map[string]int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %v vs %v", label, a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("%s: key %s has %d vs %d\n%v\n%v", label, k, v, b[k], a, b)
		}
	}
}

func TestSchedulerPermutationInvariance(t *testing.T) {
	// Small batch exercises Case 1 (capacity covers demand); the large
	// batch overflows capacity and exercises Case 2's two-phase routing.
	for _, n := range []int{12, 400} {
		for seed := int64(1); seed <= 5; seed++ {
			base := scheduleCounts(t, 1, seed, false, n)
			perm := scheduleCounts(t, 1, seed, true, n)
			diffCounts(t, fmt.Sprintf("n=%d seed=%d", n, seed), base, perm)
		}
	}
}

func TestSchedulerCostScalingInvariance(t *testing.T) {
	for _, n := range []int{12, 400} {
		for seed := int64(1); seed <= 5; seed++ {
			base := scheduleCounts(t, 1, seed, false, n)
			for _, k := range []time.Duration{2, 5} {
				scaled := scheduleCounts(t, k, seed, false, n)
				diffCounts(t, fmt.Sprintf("n=%d seed=%d k=%d", n, seed, k), base, scaled)
			}
		}
	}
}

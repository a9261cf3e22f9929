package sched

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// place dispatches r to worker n the way the schedulers do, runs the
// clock to its arrival and fails the test unless the engine's
// accounting holds and the node's in-transit demand is back where it
// was before the dispatch.
func place(t testing.TB, e *engine.Engine, r *engine.Request, n topo.NodeID) {
	t.Helper()
	s, node := e.Sim(), e.Node(n)
	before := node.InTransit()
	e.Dispatch(r, n)
	s.RunUntil(s.Now() + e.TransitDelay(r.Cluster, n, r.SType.TxKB))
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("after placing request %d on node %d: %v", r.ID, n, err)
	}
	if got := node.InTransit(); got != before {
		t.Fatalf("request %d arrived at node %d with in-transit demand %v, want %v", r.ID, n, got, before)
	}
}

func env() (*engine.Engine, *topo.Topology) {
	s := sim.New()
	b := topo.NewBuilder()
	w := []res.Vector{res.V(4000, 8192, 500), res.V(4000, 8192, 500)}
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), w)
	b.AddCluster(30.5, 120, res.V(8000, 16384, 1000), w) // ~55km: geo-nearby
	b.AddCluster(40, 120, res.V(8000, 16384, 1000), w)   // ~1100km: far
	tp := b.Build()
	e := engine.New(engine.Config{Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}})
	return e, tp
}

func lcReq(e *engine.Engine, id int64, cluster topo.ClusterID) *engine.Request {
	return e.NewRequest(trace.Request{ID: id, Type: 1, Class: trace.LC, Cluster: cluster})
}

func TestRoundRobinCycles(t *testing.T) {
	e, tp := env()
	rr := &RoundRobin{}
	cands := CandidatesLC(e, 2) // no neighbours: cluster 2's own two workers
	var got []topo.NodeID
	for i := 0; i < 4; i++ {
		id, ok := rr.Pick(lcReq(e, int64(i), 2), cands)
		if !ok {
			t.Fatal("pick failed")
		}
		got = append(got, id)
	}
	w := tp.Cluster(2).Workers
	want := []topo.NodeID{w[0], w[1], w[0], w[1]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
	if _, ok := rr.Pick(lcReq(e, 9, 0), nil); ok {
		t.Fatal("empty candidates accepted")
	}
}

func TestLoadGreedyPicksIdlest(t *testing.T) {
	e, tp := env()
	w := tp.Cluster(2).Workers
	// Load worker 0 heavily.
	place(t, e, e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 2}), w[0])
	lg := LoadGreedy{}
	id, ok := lg.Pick(lcReq(e, 2, 2), CandidatesLC(e, 2))
	if !ok || id != w[1] {
		t.Fatalf("picked %d, want idle %d", id, w[1])
	}
	// Equal load -> lowest ID.
	e2, tp2 := env()
	id, _ = lg.Pick(lcReq(e2, 1, 2), CandidatesLC(e2, 2))
	if id != tp2.Cluster(2).Workers[0] {
		t.Fatalf("tie-break picked %d", id)
	}
	if _, ok := lg.Pick(lcReq(e, 3, 0), nil); ok {
		t.Fatal("empty candidates accepted")
	}
}

func TestScoringBalancesLoadAndDistance(t *testing.T) {
	e, tp := env()
	sc := NewScoring(tp)
	// All idle: local worker should win over the distant cluster's.
	cands := CandidatesBE(e) // every worker, the far cluster's too
	id, ok := sc.Pick(lcReq(e, 1, 0), cands)
	if !ok {
		t.Fatal("pick failed")
	}
	if e.Node(id).Cluster != 0 {
		t.Fatalf("picked remote cluster %d while local idle", e.Node(id).Cluster)
	}
	// Saturate the local cluster: scoring should go nearby.
	for _, w := range tp.Cluster(0).Workers {
		for i := int64(0); i < 8; i++ {
			place(t, e, e.NewRequest(trace.Request{ID: 100 + i, Type: 6, Class: trace.BE, Cluster: 0}), w)
		}
	}
	id, _ = sc.Pick(lcReq(e, 2, 0), cands)
	if e.Node(id).Cluster == 0 {
		t.Fatal("scoring stayed on saturated local cluster")
	}
	if _, ok := sc.Pick(lcReq(e, 3, 0), nil); ok {
		t.Fatal("empty candidates accepted")
	}
}

func TestCandidatesLCRespectsGeoRadius(t *testing.T) {
	e, _ := env()
	near := CandidatesLC(e, 0)
	if len(near) != 4 { // local + cluster 1
		t.Fatalf("cluster 0 candidates = %d, want 4", len(near))
	}
	local := CandidatesLC(e, 2)
	if len(local) != 2 { // no cluster within 500 km
		t.Fatalf("cluster 2 candidates = %d, want 2", len(local))
	}
}

func TestCandidatesBEGlobal(t *testing.T) {
	e, _ := env()
	if got := len(CandidatesBE(e)); got != 6 {
		t.Fatalf("BE candidates = %d, want all 6 workers", got)
	}
}

func TestSchedulerNames(t *testing.T) {
	_, tp := env()
	if (&RoundRobin{}).Name() != "k8s-native" {
		t.Fatal("RoundRobin name")
	}
	if (LoadGreedy{}).Name() != "load-greedy" {
		t.Fatal("LoadGreedy name")
	}
	if NewScoring(tp).Name() != "scoring" {
		t.Fatal("Scoring name")
	}
}

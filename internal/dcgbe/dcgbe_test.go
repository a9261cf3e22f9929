package dcgbe

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func env(clusters int) (*sim.Simulator, *engine.Engine, *topo.Topology) {
	s := sim.New()
	b := topo.NewBuilder()
	for i := 0; i < clusters; i++ {
		w := []res.Vector{res.V(4000, 8192, 500), res.V(4000, 8192, 500)}
		b.AddCluster(30+float64(i)*0.3, 120, res.V(8000, 16384, 1000), w)
	}
	tp := b.Build()
	e := engine.New(engine.Config{Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}})
	return s, e, tp
}

func beReq(e *engine.Engine, id int64) *engine.Request {
	return e.NewRequest(trace.Request{ID: id, Type: 5, Class: trace.BE, Cluster: 0})
}

func TestVariantsConstruct(t *testing.T) {
	_, e, _ := env(2)
	wantNames := map[string]Variant{
		"DCG-BE":        {},
		"GNN-SAC":       {Agent: "sac"},
		"DCG-BE/gcn":    {Encoder: "gcn"},
		"DCG-BE/gat":    {Encoder: "gat"},
		"DCG-BE/native": {Encoder: "native"},
	}
	for name, v := range wantNames {
		s := NewVariant(e, v, 1)
		if s.Name() != name {
			t.Errorf("variant %+v name = %q, want %q", v, s.Name(), name)
		}
	}
}

func TestUnknownVariantPanics(t *testing.T) {
	_, e, _ := env(1)
	for _, v := range []Variant{{Encoder: "xxx"}, {Agent: "yyy"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("variant %+v did not panic", v)
				}
			}()
			NewVariant(e, v, 1)
		}()
	}
}

func TestPickReturnsValidWorker(t *testing.T) {
	_, e, _ := env(3)
	s := New(e, 1)
	seen := map[topo.NodeID]bool{}
	for i := int64(0); i < 30; i++ {
		id, ok := s.Pick(beReq(e, i), nil)
		if !ok {
			t.Fatal("pick failed")
		}
		if e.Node(id) == nil {
			t.Fatal("picked non-worker")
		}
		seen[id] = true
	}
	if len(seen) < 2 {
		t.Fatalf("policy degenerate: only %d distinct nodes", len(seen))
	}
	if s.Decisions != 30 {
		t.Fatalf("decisions = %d", s.Decisions)
	}
}

func TestMaskingAvoidsFullNodes(t *testing.T) {
	_, e, tp := env(2)
	s := New(e, 2)
	// Fill every worker of cluster 0 completely with BE work.
	for _, w := range tp.Cluster(0).Workers {
		for i := int64(0); i < 4; i++ {
			e.DispatchLocal(e.NewRequest(trace.Request{ID: 100 + i, Type: 6, Class: trace.BE, Cluster: 0}), w)
		}
	}
	// All picks must land on cluster 1 (the only nodes passing the
	// context filter).
	for i := int64(0); i < 20; i++ {
		id, _ := s.Pick(beReq(e, i), nil)
		if e.Node(id).Cluster != 1 {
			t.Fatalf("picked full node %d on cluster %d", id, e.Node(id).Cluster)
		}
	}
}

func TestAllFullFallsBackUnmasked(t *testing.T) {
	_, e, tp := env(1)
	s := New(e, 3)
	for _, w := range tp.Cluster(0).Workers {
		for i := int64(0); i < 4; i++ {
			e.DispatchLocal(e.NewRequest(trace.Request{ID: 200 + i + int64(w)*10, Type: 6, Class: trace.BE, Cluster: 0}), w)
		}
	}
	if _, ok := s.Pick(beReq(e, 1), nil); !ok {
		t.Fatal("pick should still succeed when everything is full")
	}
}

func TestTrainingHappensEveryN(t *testing.T) {
	_, e, _ := env(2)
	s := New(e, 4)
	s.trainEvery = 8
	for i := int64(0); i < 17; i++ {
		s.Pick(beReq(e, i), nil)
	}
	if s.Updates != 2 {
		t.Fatalf("updates = %d, want 2", s.Updates)
	}
	s.Flush()
	if s.Updates != 3 {
		t.Fatalf("updates after flush = %d, want 3", s.Updates)
	}
	s.Flush() // idempotent on empty buffer
	if s.Updates != 3 {
		t.Fatal("flush on empty buffer trained")
	}
}

func TestShortRewardDecreasesWithLoad(t *testing.T) {
	_, e, tp := env(1)
	s := New(e, 5)
	n := e.Node(tp.Cluster(0).Workers[0])
	idle := s.shortReward(n)
	e.DispatchLocal(e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 0}), n.ID)
	loaded := s.shortReward(n)
	if loaded >= idle {
		t.Fatalf("reward did not fall with load: %g -> %g", idle, loaded)
	}
	if idle > 1 || loaded <= 0 {
		t.Fatalf("rewards out of range: %g %g", idle, loaded)
	}
}

func TestLongRewardAccumulatesFromOutcomes(t *testing.T) {
	_, e, tp := env(1)
	s := New(e, 6)
	w := tp.Cluster(0).Workers[0]
	o := engine.Outcome{
		Req: &engine.Request{
			ID: 1, Type: 6, Class: trace.BE, Target: w,
			SType: trace.DefaultCatalog().Type(6),
		},
		Completed: true,
	}
	s.NotifyOutcome(o)
	if s.completedWork <= 0 {
		t.Fatal("completed work not accumulated")
	}
	// LC outcomes and failures are ignored.
	before := s.completedWork
	s.NotifyOutcome(engine.Outcome{Req: &engine.Request{ID: 2, Type: 1, Class: trace.LC, Target: w}, Completed: true})
	s.NotifyOutcome(engine.Outcome{Req: &engine.Request{ID: 3, Type: 6, Class: trace.BE, Target: w}, Completed: false})
	if s.completedWork != before {
		t.Fatal("non-BE or failed outcome changed the accumulator")
	}
}

func TestSlackFnWiredIntoFeatures(t *testing.T) {
	_, e, _ := env(1)
	s := New(e, 7)
	s.SlackFn = func(id topo.NodeID) float64 { return 0.42 }
	x := s.stateFeatures(100, 100)
	for i := 0; i < x.R; i++ {
		if x.At(i, 4) != 0.42 {
			t.Fatalf("slack feature = %v", x.At(i, 4))
		}
	}
}

func TestGraphMirrorsTopology(t *testing.T) {
	_, e, tp := env(3) // clusters 0.3° apart: all within 500km chain
	s := New(e, 8)
	if s.graph.N != len(e.Nodes()) {
		t.Fatalf("graph nodes = %d", s.graph.N)
	}
	// Workers of one cluster are mutually connected.
	w := tp.Cluster(0).Workers
	i0, i1 := s.index[w[0]], s.index[w[1]]
	found := false
	for _, nb := range s.graph.Neigh[i0] {
		if nb == i1 {
			found = true
		}
	}
	if !found {
		t.Fatal("LAN edge missing")
	}
	// Inter-cluster edge exists between first workers of nearby clusters.
	o := tp.Cluster(1).Workers[0]
	io := s.index[o]
	found = false
	for _, nb := range s.graph.Neigh[i0] {
		if nb == io {
			found = true
		}
	}
	if !found {
		t.Fatal("WAN edge missing")
	}
}

// End-to-end: after training on a skewed topology (one big idle cluster,
// one tiny busy one), DCG-BE should route more BE work to the big
// cluster than round-robin would.
func TestLearnsToAvoidOverloadedCluster(t *testing.T) {
	s0 := sim.New()
	b := topo.NewBuilder()
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), []res.Vector{res.V(1000, 2048, 100)}) // tiny
	b.AddCluster(30.3, 120, res.V(8000, 16384, 1000), []res.Vector{
		res.V(16000, 32768, 1000), res.V(16000, 32768, 1000),
	}) // big
	tp := b.Build()
	var done int
	e := engine.New(engine.Config{
		Sim: s0, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{},
		OnOutcome: func(o engine.Outcome) {
			if o.Completed {
				done++
			}
		},
	})
	s := New(e, 9)
	s.trainEvery = 16
	var picks []topo.NodeID
	// Stream BE requests; the engine runs so queues and completions are real.
	id := int64(0)
	ev := s0.Every(40*time.Millisecond, func() {
		r := beReq(e, id)
		id++
		if nid, ok := s.Pick(r, nil); ok {
			picks = append(picks, nid)
			e.Dispatch(r, nid)
		}
	})
	s0.RunUntil(60 * time.Second)
	ev.Cancel()
	// Count final distribution over the last 200 picks.
	tiny := tp.Cluster(0).Workers[0]
	if len(picks) < 300 {
		t.Fatalf("not enough picks: %d", len(picks))
	}
	tail := picks[len(picks)-200:]
	tinyCount := 0
	for _, nid := range tail {
		if nid == tiny {
			tinyCount++
		}
	}
	frac := float64(tinyCount) / float64(len(tail))
	t.Logf("tiny-node fraction of recent picks: %.2f (uniform would be 0.33)", frac)
	if frac > 0.34 {
		t.Fatalf("DCG-BE still overloads the tiny node: %.2f", frac)
	}
}

// TestChooseNeverPicksMaskedNode pins the sampling fallback: when
// rounding leaves Σp below the drawn value, choose returns the last node
// with p > 0, not a trailing masked (down or unfit) node.
func TestChooseNeverPicksMaskedNode(t *testing.T) {
	_, e, _ := env(2)
	s := New(e, 1)
	s.rng = rand.New(rand.NewSource(11))
	ref := rand.New(rand.NewSource(11)) // replays choose's one draw
	probs := []float64{0.3, 0, 0.3, 0}  // Σp = 0.6; nodes 1 and 3 masked
	fellBack := 0
	for i := 0; i < 500; i++ {
		x := ref.Float64()
		got := s.choose(probs)
		if probs[got] == 0 {
			t.Fatalf("draw %v chose masked node %d", x, got)
		}
		if x >= 0.6 {
			fellBack++
			if got != 2 {
				t.Fatalf("draw %v past Σp chose %d, want last positive node 2", x, got)
			}
		}
	}
	if fellBack == 0 {
		t.Fatal("no draw exercised the fallback")
	}
}

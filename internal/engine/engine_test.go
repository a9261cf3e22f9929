package engine

import (
	"testing"
	"time"

	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// testEnv builds a 1-cluster, 2-worker engine with the greedy policy.
func testEnv(policy Policy, onOutcome func(Outcome)) (*sim.Simulator, *Engine, *topo.Topology) {
	s := sim.New()
	b := topo.NewBuilder()
	b.AddCluster(31, 121, res.V(8000, 16384, 1000), []res.Vector{
		res.V(4000, 8192, 500),
		res.V(4000, 8192, 500),
	})
	tp := b.Build()
	if policy == nil {
		policy = GreedyPolicy{}
	}
	e := New(Config{
		Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: policy,
		OnOutcome: onOutcome, LCAbandonFactor: 1,
	})
	return s, e, tp
}

// place dispatches r to worker n the way the schedulers do, runs the
// clock to its arrival and fails the test unless the engine's
// accounting holds and the node's in-transit demand is back where it
// was before the dispatch.
func place(t testing.TB, e *Engine, r *Request, n topo.NodeID) {
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

func mkReq(id int64, t trace.TypeID, at time.Duration) trace.Request {
	cat := trace.DefaultCatalog()
	return trace.Request{ID: id, Type: t, Class: cat.Type(t).Class, Arrival: at, Cluster: 0}
}

func TestSingleRequestCompletes(t *testing.T) {
	var outs []Outcome
	s, e, _ := testEnv(nil, func(o Outcome) { outs = append(outs, o) })
	r := e.NewRequest(mkReq(1, 1, 0)) // lc-audio: 250m, work 25000 -> 100ms at min alloc
	e.Dispatch(r, 1)                  // node 1 is first worker
	s.Run()
	if len(outs) != 1 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	o := outs[0]
	if !o.Completed {
		t.Fatal("request did not complete")
	}
	// latency = transit + processing(100ms) + return transit; LAN so small.
	if o.Latency < 100*time.Millisecond || o.Latency > 150*time.Millisecond {
		t.Fatalf("latency = %v", o.Latency)
	}
	if !o.Satisfied {
		t.Fatalf("should satisfy 200ms target, latency %v", o.Latency)
	}
	if e.Completed != 1 || e.Abandoned != 0 {
		t.Fatalf("counters %d/%d", e.Completed, e.Abandoned)
	}
	// Resources fully reclaimed.
	if !e.Node(1).Used().IsZero() {
		t.Fatalf("leak: used %v", e.Node(1).Used())
	}
}

func TestProcessingSpeedScalesWithAllocation(t *testing.T) {
	// A bigger allocation must complete sooner.
	var done []time.Duration
	bigPolicy := policyFunc(func(n *Node, r *Request) (res.Vector, bool) {
		d := r.SType.MinDemand
		d.MilliCPU *= 2
		if n.Free().Fits(d) {
			return d, true
		}
		return res.Vector{}, false
	})
	s, e, _ := testEnv(bigPolicy, func(o Outcome) { done = append(done, o.Latency) })
	e.Dispatch(e.NewRequest(mkReq(1, 1, 0)), 1)
	s.Run()
	s2, e2, _ := testEnv(nil, func(o Outcome) { done = append(done, o.Latency) })
	e2.Dispatch(e2.NewRequest(mkReq(1, 1, 0)), 1)
	s2.Run()
	if len(done) != 2 || done[0] >= done[1] {
		t.Fatalf("2x CPU not faster: %v", done)
	}
}

type policyFunc func(n *Node, r *Request) (res.Vector, bool)

func (f policyFunc) Admit(n *Node, r *Request) (res.Vector, bool) { return f(n, r) }
func (f policyFunc) Name() string                                 { return "test" }

func TestQueueingWhenFull(t *testing.T) {
	var outs []Outcome
	s, e, _ := testEnv(nil, func(o Outcome) { outs = append(outs, o) })
	// Type 3 needs 1000m; node has 4000m => 4 concurrent (memory 1024Mi*4 fits 8192).
	for i := int64(0); i < 6; i++ {
		e.Dispatch(e.NewRequest(mkReq(i, 3, 0)), 1)
	}
	s.RunUntil(s.Now() + 30*time.Millisecond)
	n := e.Node(1)
	if len(n.running) != 4 {
		t.Fatalf("running = %d, want 4", len(n.running))
	}
	lcq, _ := n.QueueLen()
	if lcq != 2 {
		t.Fatalf("queued = %d, want 2", lcq)
	}
	s.Run()
	completed := 0
	for _, o := range outs {
		if o.Completed {
			completed++
		}
	}
	// type 3: work 175000 / 1000m = 175ms; queued start ~175ms, target 350ms
	// with abandon factor 1 they still start in time.
	if completed != 6 {
		t.Fatalf("completed = %d of 6 (outcomes %d)", completed, len(outs))
	}
}

func TestLCAbandonment(t *testing.T) {
	var outs []Outcome
	s, e, _ := testEnv(nil, func(o Outcome) { outs = append(outs, o) })
	// Saturate the node with long BE work, then send an LC request that
	// can never start within its QoS window under greedy (no preemption).
	for i := int64(0); i < 8; i++ {
		place(t, e, e.NewRequest(mkReq(i, 6, 0)), 1) // be-training 1000m x 8 > 4000m
	}
	e.Dispatch(e.NewRequest(mkReq(100, 1, 0)), 1) // lc-audio, 200ms target
	s.RunUntil(s.Now() + 2*time.Second)
	var lcOut *Outcome
	for i := range outs {
		if outs[i].Req.ID == 100 {
			lcOut = &outs[i]
		}
	}
	if lcOut == nil {
		t.Fatal("LC outcome missing")
	}
	if lcOut.Completed || lcOut.Satisfied {
		t.Fatalf("LC should be abandoned: %+v", lcOut)
	}
	if e.Abandoned != 1 {
		t.Fatalf("abandoned = %d", e.Abandoned)
	}
}

func TestCompressBESpeedsLCPath(t *testing.T) {
	s, e, _ := testEnv(nil, nil)
	n := e.Node(1)
	// Start one BE request, then grant it all idle CPU.
	be := e.NewRequest(mkReq(1, 6, 0)) // be-training: min 1000m
	place(t, e, be, 1)
	granted := n.GrantBE(1, 3000)
	if granted != 3000 {
		t.Fatalf("granted = %d", granted)
	}
	if n.Free().MilliCPU != 0 {
		t.Fatalf("free CPU = %d", n.Free().MilliCPU)
	}
	// Compress back 2000m for an incoming LC request.
	freed := n.CompressBE(res.V(2000, 0, 0), 0.25)
	if freed.MilliCPU != 2000 {
		t.Fatalf("freed = %v", freed)
	}
	if n.Free().MilliCPU != 2000 {
		t.Fatalf("free after compress = %d", n.Free().MilliCPU)
	}
	s.Run()
	if e.Completed != 1 {
		t.Fatal("compressed BE request never completed")
	}
}

func TestCompressRespectsFloor(t *testing.T) {
	_, e, _ := testEnv(nil, nil)
	n := e.Node(1)
	be := e.NewRequest(mkReq(1, 6, 0)) // min 1000m
	place(t, e, be, 1)
	// Ask for far more than can be freed: floor = 25% of 1000m = 250m.
	freed := n.CompressBE(res.V(99999, 0, 0), 0.25)
	if freed.MilliCPU != 750 {
		t.Fatalf("freed = %v, want 750m (keep 250m floor)", freed)
	}
}

func TestCompressionDelaysBECompletion(t *testing.T) {
	var outs []Outcome
	s, e, _ := testEnv(nil, func(o Outcome) { outs = append(outs, o) })
	be := e.NewRequest(mkReq(1, 6, 0)) // 900000 mc-ms / 1000m = 900ms
	place(t, e, be, 1)
	// Let it run 300ms, then halve its CPU.
	s.RunUntil(s.Now() + 300*time.Millisecond)
	n := e.Node(1)
	n.CompressBE(res.V(500, 0, 0), 0.25)
	s.Run()
	if len(outs) != 1 {
		t.Fatal("BE did not finish")
	}
	// 300ms at 1000m leaves 600000; at 500m that is 1200ms: total 1500ms.
	got := outs[0].FinishedAt
	want := 1500 * time.Millisecond
	if got < want-10*time.Millisecond || got > want+10*time.Millisecond {
		t.Fatalf("finish at %v, want ~%v", got, want)
	}
}

func TestEvictBERestartsWork(t *testing.T) {
	var outs []Outcome
	s, e, _ := testEnv(nil, func(o Outcome) { outs = append(outs, o) })
	be := e.NewRequest(mkReq(1, 6, 0)) // 2048Mi
	place(t, e, be, 1)
	s.RunUntil(s.Now() + 500*time.Millisecond)
	n := e.Node(1)
	free := n.Free().MemoryMiB
	if !n.EvictBEUntil(res.V(0, free+1000, 0)) {
		t.Fatal("eviction did not free 1000Mi more")
	}
	if reclaimed := n.Free().MemoryMiB - free; reclaimed != 2048 {
		t.Fatalf("reclaimed = %d", reclaimed)
	}
	if be.Restarts != 1 {
		t.Fatalf("restarts = %d", be.Restarts)
	}
	if len(n.running) != 0 {
		t.Fatal("evicted BE still running")
	}
	_, beq := n.QueueLen()
	if beq != 1 {
		t.Fatalf("BE queue = %d", beq)
	}
	// Nothing finishes until a drain happens; trigger by a quick LC cycle.
	place(t, e, e.NewRequest(mkReq(2, 1, s.Now())), 1)
	s.Run()
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	// Restarted BE runs its full 900ms again after requeue.
	var beOut Outcome
	for _, o := range outs {
		if o.Req.ID == 1 {
			beOut = o
		}
	}
	if beOut.FinishedAt < 1400*time.Millisecond {
		t.Fatalf("restarted BE finished suspiciously early: %v", beOut.FinishedAt)
	}
}

func TestDrainAfterCompletionStartsQueued(t *testing.T) {
	s, e, _ := testEnv(nil, nil)
	// Fill with 4 CPU-bound type-3 (1000m each), queue 2 more; as each
	// finishes the queue should drain FIFO.
	for i := int64(0); i < 6; i++ {
		e.Dispatch(e.NewRequest(mkReq(i, 3, 0)), 1)
	}
	s.Run()
	if e.Completed != 6 {
		t.Fatalf("completed = %d", e.Completed)
	}
}

func TestTransitDelayLANvsWAN(t *testing.T) {
	s := sim.New()
	b := topo.NewBuilder()
	w := []res.Vector{res.V(4000, 8192, 500)}
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), w)
	b.AddCluster(35, 120, res.V(8000, 16384, 1000), w) // ~555km away
	tp := b.Build()
	e := New(Config{Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: GreedyPolicy{}})
	lan := e.TransitDelay(0, 1, 64)
	wan := e.TransitDelay(0, 3, 64)
	if lan >= wan {
		t.Fatalf("LAN %v should beat WAN %v", lan, wan)
	}
	if wan < 10*time.Millisecond {
		t.Fatalf("WAN transit %v implausibly fast", wan)
	}
	// payload size matters
	small := e.TransitDelay(0, 3, 1)
	big := e.TransitDelay(0, 3, 10000)
	if small >= big {
		t.Fatal("payload size ignored")
	}
}

func TestAvailableForLCIncludesBEHoldings(t *testing.T) {
	_, e, _ := testEnv(nil, nil)
	n := e.Node(1)
	place(t, e, e.NewRequest(mkReq(1, 6, 0)), 1) // BE holds 1000m/2048Mi
	if n.AvailableForLC() != n.Capacity {
		t.Fatalf("AvailableForLC = %v, want full capacity %v", n.AvailableForLC(), n.Capacity)
	}
	place(t, e, e.NewRequest(mkReq(2, 1, 0)), 1) // LC holds 250m/256Mi
	want := n.Capacity.Sub(res.V(250, 256, 2))
	if n.AvailableForLC() != want {
		t.Fatalf("AvailableForLC = %v, want %v", n.AvailableForLC(), want)
	}
}

func TestAllocOverrideChangesDemand(t *testing.T) {
	_, e, _ := testEnv(nil, nil)
	n := e.Node(1)
	base := n.EffectiveDemand(1)
	if base != trace.DefaultCatalog().Type(1).MinDemand {
		t.Fatal("default demand wrong")
	}
	n.AllocOverride[1] = res.V(999, 999, 9)
	if n.EffectiveDemand(1) != res.V(999, 999, 9) {
		t.Fatal("override ignored")
	}
}

func TestScaleLatencyAddsToProcessing(t *testing.T) {
	var fast, slow time.Duration
	s, e, _ := testEnv(nil, func(o Outcome) { fast = o.Latency })
	e.Dispatch(e.NewRequest(mkReq(1, 1, 0)), 1)
	s.Run()

	s2 := sim.New()
	b := topo.NewBuilder()
	b.AddCluster(31, 121, res.V(8000, 16384, 1000), []res.Vector{res.V(4000, 8192, 500)})
	tp := b.Build()
	e2 := New(Config{Sim: s2, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: GreedyPolicy{},
		OnOutcome: func(o Outcome) { slow = o.Latency }, ScaleLatency: 23 * time.Millisecond})
	e2.Dispatch(e2.NewRequest(mkReq(1, 1, 0)), 1)
	s2.Run()
	diff := slow - fast
	if diff < 20*time.Millisecond || diff > 26*time.Millisecond {
		t.Fatalf("scale latency diff = %v, want ~23ms", diff)
	}
}

func TestUtilizationMetrics(t *testing.T) {
	_, e, _ := testEnv(nil, nil)
	n := e.Node(1)
	if n.Utilization() != 0 {
		t.Fatal("fresh node not idle")
	}
	place(t, e, e.NewRequest(mkReq(1, 6, 0)), 1) // 1000m of 4000m
	if n.Utilization() <= 0 {
		t.Fatal("dominant share should be positive")
	}
}

func TestOverCommitPanics(t *testing.T) {
	_, e, _ := testEnv(policyFunc(func(n *Node, r *Request) (res.Vector, bool) {
		return res.V(99999, 0, 0), true // exceeds capacity
	}), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("overcommit did not panic")
		}
	}()
	place(t, e, e.NewRequest(mkReq(1, 1, 0)), 1)
}

func TestZeroCPUAllocPanics(t *testing.T) {
	_, e, _ := testEnv(policyFunc(func(n *Node, r *Request) (res.Vector, bool) {
		return res.V(0, 10, 0), true
	}), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-CPU alloc did not panic")
		}
	}()
	place(t, e, e.NewRequest(mkReq(1, 1, 0)), 1)
}

func TestNonWorkerNodePanics(t *testing.T) {
	_, e, _ := testEnv(nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("dispatch to master did not panic")
		}
	}()
	e.Dispatch(e.NewRequest(mkReq(1, 1, 0)), 0) // node 0 is the master
}

func TestNodesOrderStable(t *testing.T) {
	_, e, _ := testEnv(nil, nil)
	ns := e.Nodes()
	if len(ns) != 2 || ns[0].ID != 1 || ns[1].ID != 2 {
		t.Fatalf("nodes = %v", ns)
	}
}

package hrm

import (
	"testing"
	"time"

	"repro/internal/cgroup"
	"repro/internal/engine"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func env(p engine.Policy, onOut func(engine.Outcome)) (*sim.Simulator, *engine.Engine) {
	s := sim.New()
	b := topo.NewBuilder()
	b.AddCluster(31, 121, res.V(8000, 16384, 1000), []res.Vector{res.V(4000, 8192, 500)})
	tp := b.Build()
	e := engine.New(engine.Config{
		Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: p,
		OnOutcome: onOut, LCAbandonFactor: 1, ScaleLatency: DVPAOpLatency,
	})
	return s, e
}

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

func req(e *engine.Engine, id int64, t trace.TypeID, at time.Duration) *engine.Request {
	cat := trace.DefaultCatalog()
	return e.NewRequest(trace.Request{ID: id, Type: t, Class: cat.Type(t).Class, Arrival: at, Cluster: 0})
}

func TestRegulationsLCPreemptsBECompressible(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	n := e.Node(1)
	// Two BE analytics jobs (500m/1024Mi each), boosted to soak all CPU;
	// memory stays plentiful so only compression is needed.
	for i := int64(0); i < 2; i++ {
		place(t, e, req(e, i, 5, 0), 1)
		n.GrantBE(i, 1500)
	}
	if n.Free().MilliCPU != 0 {
		t.Fatalf("setup: free = %v", n.Free())
	}
	// LC request must be admitted by compressing BE CPU.
	place(t, e, req(e, 100, 3, 0), 1) // needs 1000m/1024Mi
	if lcq, beq := n.QueueLen(); lcq != 0 || beq != 0 || n.RunningBECount() != 2 {
		t.Fatalf("queued = (%d, %d), running BE = %d; want the LC admitted via compression",
			lcq, beq, n.RunningBECount())
	}
	s.Run()
	if e.Completed != 3 {
		t.Fatalf("completed = %d", e.Completed)
	}
}

func TestRegulationsLCEvictsBEForMemory(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	n := e.Node(1)
	// Four BE training jobs: 4x2048Mi = 8192Mi — all memory gone.
	for i := int64(0); i < 4; i++ {
		place(t, e, req(e, i, 6, 0), 1)
	}
	if n.Free().MemoryMiB != 0 {
		t.Fatalf("setup: free mem = %d", n.Free().MemoryMiB)
	}
	// LC needs 1024Mi: a BE must be evicted (memory is incompressible).
	place(t, e, req(e, 100, 3, 0), 1)
	lcq, beq := n.QueueLen()
	if lcq != 0 || n.RunningBECount() != 3 { // 3 BE + 1 LC running
		t.Fatalf("LC queued = %d, running BE = %d", lcq, n.RunningBECount())
	}
	if beq != 1 {
		t.Fatalf("evicted BE should be queued: %d", beq)
	}
	s.Run()
	if e.Completed != 5 {
		t.Fatalf("completed = %d", e.Completed)
	}
}

func TestRegulationsBEOnlyUsesIdle(t *testing.T) {
	pol := NewRegulations()
	_, e := env(pol, nil)
	n := e.Node(1)
	// LC fills CPU: 4 AR-inference at 1000m.
	for i := int64(0); i < 4; i++ {
		place(t, e, req(e, i, 3, 0), 1)
	}
	// BE must queue, not preempt LC.
	place(t, e, req(e, 100, 5, 0), 1)
	lcq, beq := n.QueueLen()
	if lcq != 0 || n.RunningBECount() != 0 {
		t.Fatalf("BE should not preempt LC: LC queued = %d, running BE = %d", lcq, n.RunningBECount())
	}
	if beq != 1 {
		t.Fatalf("BE queue = %d", beq)
	}
}

func TestRegulationsBEReclaimsBoostFromPeers(t *testing.T) {
	pol := NewRegulations()
	_, e := env(pol, nil)
	n := e.Node(1)
	place(t, e, req(e, 1, 5, 0), 1) // be-analytics 500m
	n.GrantBE(1, 3500)              // boosted to the whole node
	if n.Free().MilliCPU != 0 {
		t.Fatal("setup: node should be fully boosted")
	}
	// A second BE (500m) must be admitted by reclaiming boost only.
	place(t, e, req(e, 2, 5, 0), 1)
	if n.RunningBECount() != 2 {
		t.Fatalf("running BE = %d, want 2", n.RunningBECount())
	}
}

func TestRegulationsDisablePreemptionAblation(t *testing.T) {
	pol := NewRegulations()
	pol.DisablePreemption = true
	_, e := env(pol, nil)
	n := e.Node(1)
	for i := int64(0); i < 4; i++ {
		place(t, e, req(e, i, 6, 0), 1)
	}
	place(t, e, req(e, 100, 3, 0), 1)
	if n.RunningBECount() != 4 {
		t.Fatal("preemption happened despite ablation flag")
	}
	lcq, _ := n.QueueLen()
	if lcq != 1 {
		t.Fatalf("LC queue = %d", lcq)
	}
}

func TestStaticPartitionSeparatesClasses(t *testing.T) {
	pol := &StaticPartition{LCFraction: 0.5}
	_, e := env(pol, nil)
	n := e.Node(1)
	// LC partition = 2000m/4096Mi. Two type-3 (1000m) fill it.
	for i := int64(0); i < 3; i++ {
		place(t, e, req(e, i, 3, 0), 1)
	}
	if lcq, _ := n.QueueLen(); lcq != 1 {
		t.Fatalf("LC queued = %d, want 1 (partition full)", lcq)
	}
	// BE partition still takes BE work even though LC is queued.
	place(t, e, req(e, 100, 6, 0), 1)
	if n.RunningBECount() != 1 {
		t.Fatalf("BE not admitted to its partition: %d", n.RunningBECount())
	}
	// BE partition = 2000m: second training job (1000m) fits, third not.
	place(t, e, req(e, 101, 6, 0), 1)
	place(t, e, req(e, 102, 6, 0), 1)
	if _, beq := n.QueueLen(); beq != 1 || n.RunningBECount() != 2 {
		t.Fatalf("BE queued = %d, running BE = %d; want 1, 2", beq, n.RunningBECount())
	}
}

func TestNewStaticPartitionFromTrace(t *testing.T) {
	cat := trace.DefaultCatalog()
	// All-LC trace -> capped at 0.9; all-BE -> floored at 0.1.
	lcReqs := []trace.Request{{Type: 0, Class: trace.LC}, {Type: 1, Class: trace.LC}}
	if p := NewStaticPartition(cat, lcReqs); p.LCFraction != 0.9 {
		t.Fatalf("all-LC fraction = %v", p.LCFraction)
	}
	beReqs := []trace.Request{{Type: 6, Class: trace.BE}}
	if p := NewStaticPartition(cat, beReqs); p.LCFraction != 0.1 {
		t.Fatalf("all-BE fraction = %v", p.LCFraction)
	}
	// Enough LC work to land between the clamps.
	var mixed []trace.Request
	for i := 0; i < 10; i++ {
		mixed = append(mixed, trace.Request{Type: 3, Class: trace.LC})
	}
	mixed = append(mixed, beReqs...)
	p := NewStaticPartition(cat, mixed)
	if p.LCFraction <= 0.1 || p.LCFraction >= 0.9 {
		t.Fatalf("mixed fraction = %v", p.LCFraction)
	}
	if q := NewStaticPartition(cat, nil); q.LCFraction != 0.5 {
		t.Fatalf("empty trace fraction = %v", q.LCFraction)
	}
}

func TestBoosterExpandsBEIntoIdle(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	n := e.Node(1)
	place(t, e, req(e, 1, 6, 0), 1) // 1000m of 4000m
	b := NewBooster(e)
	b.Start(s)
	s.RunUntil(s.Now() + 250*time.Millisecond)
	// After one boost tick the BE should hold ~90% of the node's CPU.
	if n.Used().MilliCPU < 3000 {
		t.Fatalf("BE not boosted: used = %v", n.Used())
	}
	// And the reserve headroom is respected.
	if n.Free().MilliCPU < 400-10 {
		t.Fatalf("reserve not kept: free = %v", n.Free())
	}
}

func TestBoostedBEYieldsToLC(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	n := e.Node(1)
	place(t, e, req(e, 1, 6, 0), 1)
	boost := NewBooster(e).Start(s)
	s.RunUntil(s.Now() + 250*time.Millisecond)
	used := n.Used().MilliCPU
	if used < 3000 {
		t.Fatalf("setup: boost failed (used %d)", used)
	}
	// LC arrives needing 1000m; compression must free it instantly.
	place(t, e, req(e, 2, 3, s.Now()), 1)
	if lcq, _ := n.QueueLen(); lcq != 0 || n.RunningBECount() != 1 {
		t.Fatal("LC not admitted after boost")
	}
	boost.Cancel()
	s.Run()
	if e.Completed != 2 {
		t.Fatalf("completed = %d", e.Completed)
	}
}

func TestDVPAResizeFastAndNonDisruptive(t *testing.T) {
	h := cgroup.NewHierarchy(res.V(4000, 8192, 0))
	pod, err := h.CreatePod(cgroup.Burstable, "pod67f7df", cgroup.FromVector(res.V(1000, 1024, 0)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := h.CreateContainer(pod, "cc13fc77c", cgroup.FromVector(res.V(1000, 1024, 0)))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDVPA()
	lat, err := d.Resize(h, pod, c, res.V(2000, 2048, 0))
	if err != nil {
		t.Fatal(err)
	}
	if lat != 23*time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
	if d.Ops != 1 {
		t.Fatalf("ops = %d", d.Ops)
	}
	if c.Limits().CPUQuota != 2000 {
		t.Fatalf("container limit = %+v", c.Limits())
	}
	// ~100x faster than delete-and-rebuild (2.3s+).
	if lat*100 > 4*time.Second {
		t.Fatal("D-VPA not ~100x faster than rebuild")
	}
	// Failure path: resize beyond node capacity.
	if _, err := d.Resize(h, pod, c, res.V(99999, 1024, 0)); err == nil {
		t.Fatal("oversized resize succeeded")
	}
}

func TestReAssurerIncreasesAllocationOnPoorQoS(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	ra := NewReAssurer(e)
	n := e.Node(1)
	st := trace.DefaultCatalog().Type(1) // 200ms target
	// Feed outcomes with latency way above target (poor: slack < alpha).
	for i := 0; i < 20; i++ {
		ra.Observe(engine.Outcome{
			Req:        &engine.Request{ID: int64(i), Type: 1, Class: trace.LC, Target: 1},
			Completed:  true,
			Latency:    st.QoSTarget * 2,
			FinishedAt: s.Now(),
		})
	}
	before := n.EffectiveDemand(1)
	ra.Tick()
	after := n.EffectiveDemand(1)
	if after.MilliCPU <= before.MilliCPU {
		t.Fatalf("allocation not increased: %v -> %v", before, after)
	}
	if ra.Adjustments == 0 {
		t.Fatal("no adjustment recorded")
	}
}

func TestReAssurerDecreasesAllocationOnExcellentQoS(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	ra := NewReAssurer(e)
	n := e.Node(1)
	st := trace.DefaultCatalog().Type(1)
	// Start from an elevated override.
	n.AllocOverride[1] = st.MinDemand.ScaleFloat(2)
	for i := 0; i < 20; i++ {
		ra.Observe(engine.Outcome{
			Req:        &engine.Request{ID: int64(i), Type: 1, Class: trace.LC, Target: 1},
			Completed:  true,
			Latency:    st.QoSTarget / 10, // slack 0.9 > beta
			FinishedAt: s.Now(),
		})
	}
	before := n.EffectiveDemand(1)
	ra.Tick()
	after := n.EffectiveDemand(1)
	if after.MilliCPU >= before.MilliCPU {
		t.Fatalf("allocation not decreased: %v -> %v", before, after)
	}
	// Never below the catalog minimum.
	for i := 0; i < 50; i++ {
		ra.Tick()
	}
	if n.EffectiveDemand(1).MilliCPU < st.MinDemand.MilliCPU {
		t.Fatal("override fell below minimum demand")
	}
}

func TestReAssurerStableBandNoChange(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	ra := NewReAssurer(e)
	st := trace.DefaultCatalog().Type(1)
	// slack = 1 - 0.7 = 0.3, between alpha 0.1 and beta 0.5.
	for i := 0; i < 20; i++ {
		ra.Observe(engine.Outcome{
			Req:        &engine.Request{ID: int64(i), Type: 1, Class: trace.LC, Target: 1},
			Completed:  true,
			Latency:    time.Duration(float64(st.QoSTarget) * 0.7),
			FinishedAt: s.Now(),
		})
	}
	ra.Tick()
	if ra.Adjustments != 0 {
		t.Fatalf("stable band adjusted %d times", ra.Adjustments)
	}
}

func TestReAssurerCapsAtMaxFactor(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	ra := NewReAssurer(e)
	n := e.Node(1)
	st := trace.DefaultCatalog().Type(1)
	for round := 0; round < 100; round++ {
		ra.Observe(engine.Outcome{
			Req:        &engine.Request{ID: int64(round), Type: 1, Class: trace.LC, Target: 1},
			Completed:  true,
			Latency:    st.QoSTarget * 3,
			FinishedAt: s.Now(),
		})
		ra.Tick()
	}
	max := st.MinDemand.ScaleFloat(maxFactor)
	if got := n.EffectiveDemand(1); got.MilliCPU > max.MilliCPU {
		t.Fatalf("override %v exceeds cap %v", got, max)
	}
}

func TestReAssurerIgnoresBEAndUntargeted(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	ra := NewReAssurer(e)
	ra.Observe(engine.Outcome{Req: &engine.Request{ID: 1, Type: 6, Class: trace.BE, Target: 1}, FinishedAt: s.Now()})
	ra.Observe(engine.Outcome{Req: &engine.Request{ID: 2, Type: 1, Class: trace.LC, Target: -1}, FinishedAt: s.Now()})
	if _, ok := ra.Slack(1, 6); ok {
		t.Fatal("BE outcome recorded")
	}
	if _, ok := ra.Slack(1, 1); ok {
		t.Fatal("untargeted outcome recorded")
	}
}

func TestSlackScoreFormula(t *testing.T) {
	pol := NewRegulations()
	s, e := env(pol, nil)
	ra := NewReAssurer(e)
	st := trace.DefaultCatalog().Type(1) // 200ms
	ra.Observe(engine.Outcome{
		Req:        &engine.Request{ID: 1, Type: 1, Class: trace.LC, Target: 1},
		Latency:    100 * time.Millisecond,
		FinishedAt: s.Now(),
	})
	slack, ok := ra.Slack(1, 1)
	if !ok {
		t.Fatal("no slack")
	}
	want := 1 - 100.0/200.0
	if slack != want {
		t.Fatalf("slack = %v, want %v", slack, want)
	}
	_ = st
	// A violation (latency > target) must give negative slack.
	ra.Observe(engine.Outcome{
		Req:        &engine.Request{ID: 2, Type: 1, Class: trace.LC, Target: 1},
		Latency:    400 * time.Millisecond,
		FinishedAt: s.Now(),
	})
	slack, _ = ra.Slack(1, 1)
	if slack >= 0 {
		t.Fatalf("violation slack = %v, want negative", slack)
	}
}

// End-to-end: under a bursty LC load co-located with BE, HRM keeps more
// LC requests satisfied than the static partition while using the same
// resources.
func TestHRMBeatsStaticOnMixedLoad(t *testing.T) {
	run := func(p engine.Policy, boost bool) (qos float64, completedBE int) {
		s := sim.New()
		b := topo.NewBuilder()
		b.AddCluster(31, 121, res.V(8000, 16384, 1000), []res.Vector{res.V(4000, 8192, 500), res.V(4000, 8192, 500)})
		tp := b.Build()
		var lcSat, lcTot, beDone int
		e := engine.New(engine.Config{
			Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: p,
			LCAbandonFactor: 1,
			OnOutcome: func(o engine.Outcome) {
				if o.Req.Class == trace.LC {
					lcTot++
					if o.Completed && o.Satisfied {
						lcSat++
					}
				} else if o.Completed {
					beDone++
				}
			},
		})
		if boost {
			NewBooster(e).Start(s)
		}
		reqs := trace.Generate(trace.GenConfig{
			Catalog: trace.DefaultCatalog(), Pattern: trace.P1,
			Duration: 20 * time.Second, LCRatePerSec: 24, BERatePerSec: 10,
			Clusters: []topo.ClusterID{0}, PeriodicCycle: 5 * time.Second, Seed: 42,
		})
		next := 0
		for _, r := range reqs {
			r := r
			s.Schedule(r.Arrival, func() {
				er := e.NewRequest(r)
				// round-robin the two workers
				e.Dispatch(er, tp.Cluster(0).Workers[next%2])
				next++
			})
		}
		// The booster is periodic, so bound the run instead of draining.
		s.RunUntil(60 * time.Second)
		if lcTot == 0 {
			t.Fatal("no LC outcomes")
		}
		return float64(lcSat) / float64(lcTot), beDone
	}
	cat := trace.DefaultCatalog()
	reqs := trace.Generate(trace.GenConfig{Catalog: cat, Pattern: trace.P1, Duration: 20 * time.Second,
		LCRatePerSec: 24, BERatePerSec: 10, Clusters: []topo.ClusterID{0}, PeriodicCycle: 5 * time.Second, Seed: 42})
	hrmQoS, hrmBE := run(NewRegulations(), true)
	natQoS, natBE := run(NewStaticPartition(cat, reqs), false)
	t.Logf("HRM: qos=%.3f be=%d | static: qos=%.3f be=%d", hrmQoS, hrmBE, natQoS, natBE)
	if hrmQoS < natQoS {
		t.Fatalf("HRM QoS %.3f worse than static %.3f", hrmQoS, natQoS)
	}
	if hrmBE < natBE/2 {
		t.Fatalf("HRM starved BE: %d vs %d", hrmBE, natBE)
	}
}

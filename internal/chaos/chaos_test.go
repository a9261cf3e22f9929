package chaos

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
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

// env builds two 2-worker clusters with an engine, mirroring the
// engine-side migration tests: workers 1,2 (cluster 0) and 4,5
// (cluster 1).
func env(t testing.TB) (*sim.Simulator, *engine.Engine, *topo.Topology) {
	t.Helper()
	s := sim.New()
	b := topo.NewBuilder()
	caps := []res.Vector{res.V(4000, 8192, 500), res.V(4000, 8192, 500)}
	b.AddCluster(31.2, 121.5, res.V(8000, 16384, 1000), caps)
	b.AddCluster(32.1, 118.8, res.V(8000, 16384, 1000), caps)
	tp := b.Build()
	e := engine.New(engine.Config{
		Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{},
		OnDisplaced: func([]*engine.Request) {}, LCAbandonFactor: 1,
	})
	return s, e, tp
}

func TestRandomProgramDeterministic(t *testing.T) {
	_, _, tp := env(t)
	// Every fault kind once or twice.
	cfg := RandConfig{NodeChurn: 2, ClusterKill: 1, Partitions: 1, RTTStorms: 1, FlashCrowds: 1, Stalls: 1}
	a := Random(tp, 10*time.Second, 42, cfg)
	b := Random(tp, 10*time.Second, 42, cfg)
	if a.Digest() != b.Digest() {
		t.Fatalf("same seed, different programs:\n%s\n%s", a.Digest(), b.Digest())
	}
	c := Random(tp, 10*time.Second, 43, cfg)
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds produced identical programs")
	}
	for i := 1; i < len(a.Faults); i++ {
		if a.Faults[i].At < a.Faults[i-1].At {
			t.Fatal("Random program not sorted by time")
		}
	}
	horizon := 10 * time.Second
	for _, f := range a.Faults {
		if f.At < horizon/8 || f.At > horizon*3/4 {
			t.Fatalf("fault at %v outside [%v, %v]", f.At, horizon/8, horizon*3/4)
		}
		if f.Span <= 0 {
			t.Fatalf("Random produced an open-ended fault: %v", f)
		}
	}
}

func TestPresets(t *testing.T) {
	_, _, tp := env(t)
	for _, name := range []string{"churn", "partition", "flash", "all"} {
		p, err := Preset(name, tp, 10*time.Second, 1)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if len(p.Faults) == 0 || p.Name != name {
			t.Fatalf("preset %s: %d faults, name %q", name, len(p.Faults), p.Name)
		}
	}
	if _, err := Preset("bogus", tp, 10*time.Second, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestInjectorNodeKillWindow(t *testing.T) {
	s, e, tp := env(t)
	revives := 0
	p := Program{Name: "t", Faults: []Fault{
		{At: 100 * time.Millisecond, Kind: NodeKill, Node: 1, Span: 200 * time.Millisecond},
	}}
	inj := NewInjector(p, InjectorConfig{
		Sim: s, Engine: e, Topo: tp,
		OnRevive: func() { revives++ },
	})
	inj.Arm()
	s.RunUntil(s.Now() + 150*time.Millisecond)
	if !e.Node(1).Down() {
		t.Fatal("node 1 not down inside the fault window")
	}
	if inj.Applied != 1 || inj.Active != 1 {
		t.Fatalf("applied=%d active=%d, want 1/1", inj.Applied, inj.Active)
	}
	s.Run()
	if e.Node(1).Down() {
		t.Fatal("node 1 still down after the window")
	}
	if inj.Cleared != 1 || inj.Active != 0 || revives != 1 {
		t.Fatalf("cleared=%d active=%d revives=%d, want 1/0/1", inj.Cleared, inj.Active, revives)
	}
	w := inj.windows
	if len(w) != 1 || w[0].Start != 100*time.Millisecond || w[0].End != 300*time.Millisecond {
		t.Fatalf("windows = %+v", w)
	}
}

func TestInjectorPartitionAndStormWindows(t *testing.T) {
	s, e, tp := env(t)
	p := Program{Faults: []Fault{
		{At: 50 * time.Millisecond, Kind: Partition, Cluster: 0, Peer: 1, Span: 100 * time.Millisecond},
		{At: 60 * time.Millisecond, Kind: RTTInflate, Cluster: 0, Peer: 1, Span: 100 * time.Millisecond, Factor: 3},
	}}
	NewInjector(p, InjectorConfig{Sim: s, Engine: e, Topo: tp}).Arm()
	base := tp.ClusterRTT(0, 1)
	s.RunUntil(s.Now() + 70*time.Millisecond)
	if tp.Reachable(0, 1) {
		t.Fatal("clusters reachable inside the partition window")
	}
	if got := tp.ClusterRTT(0, 1); got != topo.PartitionRTT {
		t.Fatalf("RTT under partition = %v, want %v", got, topo.PartitionRTT)
	}
	s.RunUntil(s.Now() + 85*time.Millisecond) // now=155ms: partition healed, storm active
	if !tp.Reachable(0, 1) {
		t.Fatal("partition not healed")
	}
	if got := tp.ClusterRTT(0, 1); got != 3*base {
		t.Fatalf("RTT under storm = %v, want %v", got, 3*base)
	}
	s.Run()
	if got := tp.ClusterRTT(0, 1); got != base {
		t.Fatalf("RTT after all windows = %v, want %v", got, base)
	}
}

func TestInjectorFlashCrowd(t *testing.T) {
	s, e, tp := env(t)
	var burst []trace.Request
	p := Program{Seed: 9, Faults: []Fault{
		{At: 200 * time.Millisecond, Kind: FlashCrowd, Cluster: 1, Span: 400 * time.Millisecond, Factor: 3},
	}}
	gen := trace.DefaultGenConfig([]topo.ClusterID{0, 1}, trace.P3, 0, 0)
	gen.LCRatePerSec, gen.BERatePerSec = 60, 25
	inj := NewInjector(p, InjectorConfig{
		Sim: s, Engine: e, Topo: tp, Gen: gen,
		Inject: func(rs []trace.Request) { burst = append(burst, rs...) },
	})
	inj.Arm()
	s.Run()
	if len(burst) == 0 {
		t.Fatal("flash crowd injected nothing")
	}
	if inj.Injected != int64(len(burst)) {
		t.Fatalf("Injected=%d, delivered %d", inj.Injected, len(burst))
	}
	for _, r := range burst {
		if r.ID < FlashIDBase {
			t.Fatalf("burst ID %d below FlashIDBase", r.ID)
		}
		if r.Cluster != 1 {
			t.Fatalf("burst request landed on cluster %d, want 1", r.Cluster)
		}
		if r.Arrival < 200*time.Millisecond || r.Arrival > 600*time.Millisecond {
			t.Fatalf("burst arrival %v outside the fault window", r.Arrival)
		}
	}
	// Replays are byte-identical: rebuild and compare.
	s2, e2, tp2 := env(t)
	var burst2 []trace.Request
	NewInjector(p, InjectorConfig{
		Sim: s2, Engine: e2, Topo: tp2, Gen: gen,
		Inject: func(rs []trace.Request) { burst2 = append(burst2, rs...) },
	}).Arm()
	s2.Run()
	if len(burst2) != len(burst) {
		t.Fatalf("replay burst size %d != %d", len(burst2), len(burst))
	}
	for i := range burst {
		if burst[i] != burst2[i] {
			t.Fatalf("burst[%d] differs across replays: %+v vs %+v", i, burst[i], burst2[i])
		}
	}
}

func TestInjectorStallsAndEvents(t *testing.T) {
	s, e, tp := env(t)
	tr := obs.NewTracer(s.Now, obs.NullSink{})
	var masterUntil, collUntil time.Duration
	var masterClu topo.ClusterID
	p := Program{Faults: []Fault{
		{At: 10 * time.Millisecond, Kind: MasterStall, Cluster: 1, Span: 50 * time.Millisecond},
		{At: 20 * time.Millisecond, Kind: CollectorStall, Span: 40 * time.Millisecond},
	}}
	NewInjector(p, InjectorConfig{
		Sim: s, Engine: e, Topo: tp, Tracer: tr,
		StallMaster:    func(c topo.ClusterID, until time.Duration) { masterClu, masterUntil = c, until },
		StallCollector: func(until time.Duration) { collUntil = until },
	}).Arm()
	s.Run()
	if masterClu != 1 || masterUntil != 60*time.Millisecond {
		t.Fatalf("master stall = c%d until %v", masterClu, masterUntil)
	}
	if collUntil != 60*time.Millisecond {
		t.Fatalf("collector stall until %v", collUntil)
	}
	if got := tr.Counts()[obs.EvChaos.String()]; got != 2 {
		t.Fatalf("EvChaos events = %d, want 2 (stalls self-expire, no clear event)", got)
	}
}

func TestOverlappingWindows(t *testing.T) {
	s, e, tp := env(t)
	inj := NewInjector(Program{Faults: []Fault{
		{At: 100 * time.Millisecond, Kind: NodeKill, Node: 1, Span: 100 * time.Millisecond},
	}}, InjectorConfig{Sim: s, Engine: e, Topo: tp})
	inj.Arm()
	s.Run()
	if !inj.Overlapping(150*time.Millisecond, 160*time.Millisecond) {
		t.Fatal("interval inside the window not attributed")
	}
	if inj.Overlapping(300*time.Millisecond, 400*time.Millisecond) {
		t.Fatal("interval after the window attributed")
	}
}

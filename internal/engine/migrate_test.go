package engine

import (
	"testing"
	"time"

	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// migEnv builds two 2-worker clusters ~260 km apart so both LAN and WAN
// migrations are exercised. Workers are 1..2 (cluster 0) and 4..5
// (cluster 1).
func migEnv(onDisplaced func([]*Request), onOutcome func(Outcome)) (*sim.Simulator, *Engine, *topo.Topology) {
	s := sim.New()
	b := topo.NewBuilder()
	caps := []res.Vector{res.V(4000, 8192, 500), res.V(4000, 8192, 500)}
	b.AddCluster(31.2, 121.5, res.V(8000, 16384, 1000), caps)
	b.AddCluster(32.1, 118.8, res.V(8000, 16384, 1000), caps)
	tp := b.Build()
	e := New(Config{
		Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: GreedyPolicy{},
		OnOutcome: onOutcome, OnDisplaced: onDisplaced, LCAbandonFactor: 1,
	})
	return s, e, tp
}

// expectedTransfer reproduces the migration cost model for assertions:
// half an RTT plus the checkpoint (1/64 of resident memory + payload)
// over the link bandwidth.
func expectedTransfer(tp *topo.Topology, from, to topo.NodeID, st trace.ServiceType) time.Duration {
	stateKB := st.MinDemand.MemoryMiB*16 + st.TxKB
	ser := time.Duration(float64(stateKB*8) / float64(tp.LinkBandwidth(from, to)) * float64(time.Millisecond))
	return tp.RTT(from, to)/2 + ser
}

func TestMigratePreservesProgress(t *testing.T) {
	s, e, tp := migEnv(nil, nil)
	st := trace.DefaultCatalog().Type(6) // be-training: 900k mcpu-ms / 1000 mcpu
	full := time.Duration(float64(st.Work) / float64(st.MinDemand.MilliCPU) * float64(time.Millisecond))
	place(t, e, e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	start := s.Now() // arrival, after the dispatch transit
	s.RunUntil(start + full/2)
	if !e.Migrate(1, 2, 1) {
		t.Fatal("intra-cluster migration refused")
	}
	src := e.Node(1)
	if len(src.running) != 0 || !src.Used().IsZero() {
		t.Fatalf("source did not release: running=%d used=%v", len(src.running), src.Used())
	}
	s.Run()
	if e.Completed != 1 {
		t.Fatalf("completed = %d, want 1", e.Completed)
	}
	// Progress carried: finish at half + transfer + remaining half, not
	// half + transfer + full (a restart).
	want := start + full/2 + expectedTransfer(tp, 1, 2, st) + full/2
	if diff := s.Now() - want; diff < -2*time.Millisecond || diff > 2*time.Millisecond {
		t.Fatalf("finish at %v, want ~%v (restart would be ~%v)", s.Now(), want, want+full/2)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("self-check: %v", err)
	}
}

func TestMigrateTargetDiesMidTransfer(t *testing.T) {
	var displaced []*Request
	s, e, _ := migEnv(func(rs []*Request) { displaced = append(displaced, rs...) }, nil)
	place(t, e, e.NewRequest(trace.Request{ID: 7, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	s.RunUntil(s.Now() + 100*time.Millisecond)
	if !e.Migrate(1, 4, 7) {
		t.Fatal("cross-cluster migration refused")
	}
	e.Node(4).Fail() // target dies while the checkpoint is on the wire
	s.Run()
	if len(displaced) != 1 || displaced[0].ID != 7 {
		t.Fatalf("displaced = %v, want exactly request 7", displaced)
	}
	if e.Completed != 0 {
		t.Fatalf("completed = %d, want 0", e.Completed)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("self-check after mid-transfer death: %v", err)
	}
	// The checkpoint survives displacement: re-dispatching the request
	// resumes it instead of restarting.
	if displaced[0].carryWork <= 0 {
		t.Fatal("displaced migration lost its checkpoint")
	}
}

func TestMigrateDuringPartitionRefused(t *testing.T) {
	s, e, tp := migEnv(nil, nil)
	place(t, e, e.NewRequest(trace.Request{ID: 3, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	s.RunUntil(s.Now() + 50*time.Millisecond)
	tp.Net().Partition(0, 1)
	if e.Migrate(1, 4, 3) {
		t.Fatal("migration crossed a partitioned WAN link")
	}
	if len(e.Node(1).running) != 1 {
		t.Fatal("refused migration must leave the source untouched")
	}
	tp.Net().Heal(0, 1)
	if !e.Migrate(1, 4, 3) {
		t.Fatal("migration refused after heal")
	}
	s.Run()
	if e.Completed != 1 {
		t.Fatalf("completed = %d, want 1", e.Completed)
	}
}

func TestMigrateRefusals(t *testing.T) {
	s, e, _ := migEnv(nil, nil)
	place(t, e, e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	if e.Migrate(1, 1, 1) {
		t.Fatal("self-migration accepted")
	}
	if e.Migrate(2, 1, 1) {
		t.Fatal("migrating a request that is not on the source accepted")
	}
	e.Node(2).Fail()
	if e.Migrate(1, 2, 1) {
		t.Fatal("migration onto a down node accepted")
	}
	e.Node(2).Recover()
	s.Run()
	if e.Completed != 1 {
		t.Fatalf("completed = %d, want 1", e.Completed)
	}
}

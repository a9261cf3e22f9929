package chaos

import (
	"testing"
	"time"

	"repro/internal/trace"
)

func TestDefragNoopOnCompactFleet(t *testing.T) {
	s, e, _ := env(t)
	// One BE per node: every node is far below defragHotUtil.
	place(t, e, e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	place(t, e, e.NewRequest(trace.Request{ID: 2, Type: 6, Class: trace.BE, Cluster: 0}), 2)
	d := NewDefragmenter(e)
	if got := d.Score(); got != 0 {
		t.Fatalf("Score on compact fleet = %d, want 0", got)
	}
	if moved := d.Run(); moved != 0 {
		t.Fatalf("Run on compact fleet moved %d, want 0", moved)
	}
	if e.Migrations != 0 {
		t.Fatalf("migrations = %d on a compact fleet", e.Migrations)
	}
	s.Run()
	if e.Completed != 2 {
		t.Fatalf("completed = %d, want 2", e.Completed)
	}
}

func TestDefragMovesBEOffHotNode(t *testing.T) {
	s, e, _ := env(t)
	// Four type-6 BE requests fill worker 1's 4000 mCPU: utilization 1.0.
	for id := int64(1); id <= 4; id++ {
		place(t, e, e.NewRequest(trace.Request{ID: id, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	}
	d := NewDefragmenter(e)
	if got := d.Score(); got != 1 {
		t.Fatalf("Score = %d, want 1 hot donor", got)
	}
	if moved := d.Run(); moved != 1 {
		t.Fatalf("Run moved %d, want 1 (newest BE off the hot node)", moved)
	}
	if e.Migrations != 1 {
		t.Fatalf("engine migrations = %d, want 1", e.Migrations)
	}
	if d.Passes != 1 || d.Moves != 1 {
		t.Fatalf("passes=%d moves=%d, want 1/1", d.Passes, d.Moves)
	}
	s.Run()
	if e.Completed != 4 {
		t.Fatalf("completed = %d, want 4", e.Completed)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("self-check after defrag: %v", err)
	}
}

func TestDefragRespectsPartition(t *testing.T) {
	s, e, tp := env(t)
	for id := int64(1); id <= 4; id++ {
		place(t, e, e.NewRequest(trace.Request{ID: id, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	}
	// Fill worker 2 too so the only cold receivers are across the WAN.
	for id := int64(5); id <= 8; id++ {
		place(t, e, e.NewRequest(trace.Request{ID: id, Type: 6, Class: trace.BE, Cluster: 0}), 2)
	}
	tp.Net().Partition(0, 1)
	d := NewDefragmenter(e)
	if moved := d.Run(); moved != 0 {
		t.Fatalf("defrag crossed a partition: moved %d", moved)
	}
	tp.Net().Heal(0, 1)
	if moved := d.Run(); moved == 0 {
		t.Fatal("defrag moved nothing after heal")
	}
	s.Run()
	if e.Completed != 8 {
		t.Fatalf("completed = %d, want 8", e.Completed)
	}
}

// Satellite: the defrag scoring pass must stay allocation-free — it
// runs every period even on a healthy fleet.
func TestDefragScoreAllocFree(t *testing.T) {
	_, e, _ := env(t)
	for id := int64(1); id <= 4; id++ {
		place(t, e, e.NewRequest(trace.Request{ID: id, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	}
	d := NewDefragmenter(e)
	if allocs := testing.AllocsPerRun(100, func() { d.Score() }); allocs != 0 {
		t.Fatalf("Score allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkDefragScore(b *testing.B) {
	s, e, _ := env(b)
	for id := int64(1); id <= 4; id++ {
		place(b, e, e.NewRequest(trace.Request{ID: id, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	}
	_ = s
	d := NewDefragmenter(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Score()
	}
}

func TestDefragPeriodDefaults(t *testing.T) {
	if DefragEvery != 800*time.Millisecond || DefragMaxMoves != 4 || defragHotUtil != 0.75 || defragColdUtil != 0.60 {
		t.Fatalf("defrag parameters drifted: every %v, %d moves, hot %v, cold %v",
			DefragEvery, DefragMaxMoves, defragHotUtil, defragColdUtil)
	}
	// Receivers are chosen below the cold threshold and donors at or
	// above the hot one; the gap keeps a pass monotone.
	if defragColdUtil >= defragHotUtil {
		t.Fatal("cold threshold must lie below the hot threshold")
	}
}

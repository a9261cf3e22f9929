package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// preemptPolicy mirrors the HRM admission rules (LC may compress/evict
// BE) without importing the hrm package (which depends on engine).
type preemptPolicy struct{}

func (preemptPolicy) Name() string { return "preempt-test" }
func (preemptPolicy) Admit(n *Node, r *Request) (res.Vector, bool) {
	d := n.EffectiveDemand(r.Type)
	if n.Free().Fits(d) {
		return d, true
	}
	if r.Class == trace.BE {
		return res.Vector{}, false
	}
	if !n.AvailableForLC().Fits(d) {
		return res.Vector{}, false
	}
	n.CompressBE(d.Sub(n.Free()).Max(res.Vector{}), 0.25)
	if n.Free().Fits(d) {
		return d, true
	}
	if n.EvictBEUntil(d) {
		return d, true
	}
	return res.Vector{}, false
}

// TestQuickEngineInvariants drives random workloads with random
// mid-flight preemption, boosting and failures, and checks after every
// step that node accounting never goes negative or above capacity, and
// that at the end every request is accounted for exactly once.
func TestQuickEngineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		b := topo.NewBuilder()
		b.AddCluster(31, 121, res.V(8000, 16384, 1000), []res.Vector{
			res.V(4000, 8192, 500), res.V(2000, 4096, 200),
		})
		tp := b.Build()
		outcomes := 0
		displaced := 0
		e := New(Config{
			Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: preemptPolicy{},
			LCAbandonFactor: 1,
			OnOutcome:       func(o Outcome) { outcomes++ },
			OnDisplaced:     func(rs []*Request) { displaced += len(rs) },
		})
		check := func() bool {
			for _, n := range e.Nodes() {
				if !n.Used().Nonnegative() || !n.UsedByLC().Nonnegative() {
					return false
				}
				if !n.Capacity.Fits(n.Used()) {
					return false
				}
				if !n.Used().Fits(n.UsedByLC()) {
					return false
				}
			}
			return true
		}
		total := 0
		workers := tp.Cluster(0).Workers
		for step := 0; step < 60; step++ {
			switch rng.Intn(10) {
			case 0: // random compression
				n := e.Node(workers[rng.Intn(2)])
				n.CompressBE(res.V(int64(rng.Intn(2000)), 0, 0), 0.25)
			case 1: // random boost
				n := e.Node(workers[rng.Intn(2)])
				for _, id := range n.RunningBE() {
					n.GrantBE(id, int64(rng.Intn(1000)))
				}
			case 2: // random eviction: free up to 3000Mi more memory
				n := e.Node(workers[rng.Intn(2)])
				n.EvictBEUntil(res.V(0, n.Free().MemoryMiB+int64(rng.Intn(3000)), 0))
			case 3: // fail/recover
				n := e.Node(workers[rng.Intn(2)])
				if n.Down() {
					n.Recover()
				} else if rng.Intn(2) == 0 {
					n.Fail()
				}
			default: // inject a request
				tid := trace.TypeID(rng.Intn(10))
				r := e.NewRequest(trace.Request{
					ID: int64(total), Type: tid,
					Class:   trace.DefaultCatalog().Type(tid).Class,
					Arrival: s.Now(), Cluster: 0,
				})
				total++
				e.Dispatch(r, workers[rng.Intn(2)])
			}
			s.RunUntil(s.Now() + time.Duration(rng.Intn(200))*time.Millisecond)
			if !check() {
				return false
			}
		}
		// Recover everything and drain; every injected request must end
		// exactly once (outcome) or have been displaced to the caller.
		for _, w := range workers {
			e.Node(w).Recover()
		}
		s.RunUntil(s.Now() + time.Hour)
		return outcomes+displaced+queued(e, workers) == total && check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// queued counts requests still sitting in node queues (valid end state
// for BE work whose node saw no further drain trigger).
func queued(e *Engine, workers []topo.NodeID) int {
	total := 0
	for _, w := range workers {
		lc, be := e.Node(w).QueueLen()
		total += lc + be
	}
	return total
}

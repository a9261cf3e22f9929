package rl

import (
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// clusterGraph mirrors DCG-BE's topology graph: workers are grouped into
// clusters of per nodes, complete within a cluster (LAN), and each
// cluster's first worker links to the next two clusters' (WAN).
func clusterGraph(clusters, per int) *gnn.Graph {
	var edges [][2]int
	for c := 0; c < clusters; c++ {
		for i := 0; i < per; i++ {
			for j := i + 1; j < per; j++ {
				edges = append(edges, [2]int{c*per + i, c*per + j})
			}
		}
		for d := 1; d <= 2 && clusters > d; d++ {
			edges = append(edges, [2]int{c * per, ((c + d) % clusters) * per})
		}
	}
	return gnn.NewGraph(clusters*per, edges)
}

// dcgbeAgent builds the agent with DCG-BE's shapes: 7 node features,
// GraphSAGE with p = 3 into 32-wide embeddings, 256/128/32 heads.
func dcgbeAgent(seed int64) *A2C {
	rng := rand.New(rand.NewSource(seed))
	return NewA2C(gnn.NewSAGE(rng, 3, 7, 32, 32), 32, rng)
}

// randomBatch draws n transitions over g with uniform features and
// about one node in four masked out.
func randomBatch(rng *rand.Rand, g *gnn.Graph, n int) []Transition {
	batch := make([]Transition, n)
	for i := range batch {
		x := nn.NewMat(g.N, 7)
		for j := range x.Data {
			x.Data[j] = rng.Float64()
		}
		mask := make([]bool, g.N)
		for j := range mask {
			mask[j] = rng.Intn(4) > 0
		}
		a := rng.Intn(g.N)
		mask[a] = true
		batch[i] = Transition{Graph: g, X: x, Mask: mask, Action: a, Reward: rng.Float64()}
	}
	return batch
}

func TestA2CUpdateSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := clusterGraph(4, 4)
	agent := dcgbeAgent(2)
	batch := randomBatch(rng, g, 8)
	agent.Update(batch) // size buffers and the optimizer state
	if n := testing.AllocsPerRun(20, func() { agent.Update(batch) }); n != 0 {
		t.Fatalf("steady-state A2C.Update allocates %.1f/op, want 0", n)
	}
}

// TestSampleSkipsMaskedTail pins the rounding fallback: when Σp is
// below the drawn value, the pick is the last index with p > 0, never a
// trailing masked (p = 0) entry.
func TestSampleSkipsMaskedTail(t *testing.T) {
	probs := []float64{0.25, 0.25, 0, 0} // Σp = 0.5 < 1
	// ref replays the single Float64 draw Sample makes from rng.
	rng, ref := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	fellBack := 0
	for i := 0; i < 1000; i++ {
		x := ref.Float64()
		got := Sample(rng, probs)
		if probs[got] == 0 {
			t.Fatalf("draw %v picked masked index %d", x, got)
		}
		if x >= 0.5 {
			fellBack++
			if got != 1 {
				t.Fatalf("draw %v past Σp picked %d, want last positive index 1", x, got)
			}
		}
	}
	if fellBack == 0 {
		t.Fatal("no draw exercised the fallback")
	}
	if got := Sample(rand.New(rand.NewSource(1)), []float64{0, 0, 0}); got != 2 {
		t.Fatalf("all-zero distribution picked %d, want the last index", got)
	}
}

// Benchmark results land here so the measured calls cannot be
// optimized away.
var (
	benchStats Stats
	benchProbs []float64
)

// BenchmarkA2CUpdateTestbed is one DCG-BE training interval on the
// physical testbed: 16 nodes in 4 clusters of 4, a batch of 32.
func BenchmarkA2CUpdateTestbed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := clusterGraph(4, 4)
	agent := dcgbeAgent(2)
	batch := randomBatch(rng, g, 32)
	agent.Update(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = agent.Update(batch)
	}
}

// BenchmarkA2CProbsFleet is one DCG-BE inference over the 1170-worker
// dual-space fleet.
func BenchmarkA2CProbsFleet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := clusterGraph(117, 10)
	agent := dcgbeAgent(2)
	tr := randomBatch(rng, g, 1)[0]
	agent.Probs(g, tr.X, tr.Mask)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchProbs = agent.Probs(g, tr.X, tr.Mask)
	}
}

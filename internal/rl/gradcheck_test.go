package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// TestA2CUpdateGradCheck compares the gradients Update accumulates for
// encoder, actor and critic together against central differences of the
// A2C surrogate loss
//
//	L = 1/B · Σ_i [ (R_i − V(s_i))² − A_i·log π(a_i|s_i) − β·H(π(·|s_i)) ]
//
// with the returns R_i and advantages A_i held fixed, as Update detaches
// them. The GCN encoder keeps the forward pass deterministic, the zero
// learning rate leaves the weights where Update found them, and the
// small inputs keep the gradient norm under ClipGrads' threshold.
func TestA2CUpdateGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := clusterGraph(2, 3)
	agent := NewA2C(gnn.NewGCN(rng, 3, 6, 4), 4, rng)
	agent.opt.LR = 0
	agent.entropy = 0.1 // large enough that the entropy path shows
	batch := make([]Transition, 3)
	for i := range batch {
		x := nn.NewMat(g.N, 3)
		for j := range x.Data {
			x.Data[j] = 0.1 * rng.Float64()
		}
		mask := []bool{true, false, true, true, true, false}
		a := []int{0, 2, 4}[i]
		batch[i] = Transition{Graph: g, X: x, Mask: mask, Action: a, Reward: 0.1 * rng.Float64()}
	}

	// The detached targets, computed as Update computes them.
	ret, adv := make([]float64, len(batch)), make([]float64, len(batch))
	last := batch[len(batch)-1]
	run := agent.Value(last.Graph, last.X)
	for i := len(batch) - 1; i >= 0; i-- {
		run = batch[i].Reward + agent.gamma*run
		ret[i] = run
		adv[i] = ret[i] - agent.Value(batch[i].Graph, batch[i].X)
	}
	loss := func() float64 {
		l := 0.0
		for i, tr := range batch {
			p := agent.Probs(tr.Graph, tr.X, tr.Mask)
			h := 0.0
			for _, q := range p {
				if q > 0 {
					h -= q * math.Log(q)
				}
			}
			d := ret[i] - agent.Value(tr.Graph, tr.X)
			l += d*d - adv[i]*math.Log(p[tr.Action]) - agent.entropy*h
		}
		return l / float64(len(batch))
	}

	agent.Update(batch)
	params := agent.params()
	norm := 0.0
	for _, p := range params {
		for _, v := range p.Grad.Data {
			norm += v * v
		}
	}
	if norm = math.Sqrt(norm); norm == 0 || norm >= 5 {
		t.Fatalf("gradient norm %g: want nonzero and below the clip threshold 5", norm)
	}

	checked := 0
	for _, p := range params {
		step := len(p.Val.Data)/16 + 1
		for i := 0; i < len(p.Val.Data); i += step {
			const h = 1e-6
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + h
			lp := loss()
			p.Val.Data[i] = orig - h
			lm := loss()
			p.Val.Data[i] = orig
			want := (lp - lm) / (2 * h)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > 1e-8+1e-6*math.Abs(want) {
				t.Fatalf("%s[%d]: grad %g vs numerical %g", p.Name, i, got, want)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d entries checked", checked)
	}
}

// Package rl implements the deep-reinforcement-learning substrate of
// DCG-BE (§5.3.2): Advantage Actor-Critic (A2C) with the paper's network
// shapes (three ReLU layers of 256/128/32 hidden units for both actor and
// critic, Adam with lr 2e-4), action masking ("policy context filtering"
// — invalid nodes get zero probability), and a discrete Soft Actor-Critic
// used by the GNN-SAC comparison baseline.
//
// Both agents act over a variable-size node set: the actor scores each
// node embedding with shared weights, so the same parameters work for any
// topology size — matching GraphSAGE's inductive encoding.
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// LearningRate is the paper's Adam learning rate.
const LearningRate = 2e-4

// Transition is one step of experience for training.
type Transition struct {
	Graph  *gnn.Graph
	X      *nn.Mat // node features at decision time
	Mask   []bool  // valid actions (policy context filtering)
	Action int
	Reward float64
}

// A2C is the advantage actor-critic agent.
type A2C struct {
	Enc     gnn.Encoder
	Actor   *nn.MLP // per-node embedding -> logit (shared weights)
	Critic  *nn.MLP // mean-pooled embedding -> state value
	Gamma   float64
	Entropy float64 // entropy bonus coefficient

	opt *nn.Adam
	rng *rand.Rand

	// Reused across calls: the trainables, and Update's per-transition
	// scratch.
	ps             []*nn.Param
	returns, probs []float64
	pooled, dV     *nn.Mat
	dLogits, dEmb  *nn.Mat
}

// NewA2C builds the agent for embDim-sized encoder outputs.
func NewA2C(enc gnn.Encoder, embDim int, rng *rand.Rand) *A2C {
	return &A2C{
		Enc:     enc,
		Actor:   nn.NewMLP(rng, embDim, 256, 128, 32, 1),
		Critic:  nn.NewMLP(rng, embDim, 256, 128, 32, 1),
		Gamma:   0.95,
		Entropy: 0.01,
		opt:     nn.NewAdam(LearningRate),
		rng:     rng,
		dV:      nn.NewMat(1, 1),
	}
}

// SetLR overrides the optimizer learning rate (tests and ablations; the
// paper's experiments use the default 2e-4).
func (a *A2C) SetLR(lr float64) { a.opt.LR = lr }

// params returns all trainables (encoder + heads).
func (a *A2C) params() []*nn.Param {
	if a.ps == nil {
		a.ps = append(append(a.Enc.Params(), a.Actor.Params()...), a.Critic.Params()...)
	}
	return a.ps
}

// logits computes per-node action logits for the state. The slice is
// the actor's output buffer, valid until its next Forward.
func (a *A2C) logits(g *gnn.Graph, x *nn.Mat) []float64 {
	emb := a.Enc.Forward(g, x)
	return a.Actor.Forward(emb).Data // N×1: one logit per node
}

// Probs returns the masked action distribution π(a|s), in a new slice
// the caller owns.
func (a *A2C) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	return nn.SoftmaxRow(a.logits(g, x), mask)
}

// SelectAction samples from the masked policy.
func (a *A2C) SelectAction(g *gnn.Graph, x *nn.Mat, mask []bool) int {
	p := a.Probs(g, x, mask)
	return Sample(a.rng, p)
}

// GreedyAction returns argmax of the masked policy.
func (a *A2C) GreedyAction(g *gnn.Graph, x *nn.Mat, mask []bool) int {
	p := a.Probs(g, x, mask)
	best, bi := -1.0, 0
	for i, v := range p {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Value estimates V(s) from the mean-pooled embedding.
func (a *A2C) Value(g *gnn.Graph, x *nn.Mat) float64 {
	emb := a.Enc.Forward(g, x)
	return a.Critic.Forward(a.pool(emb)).At(0, 0)
}

// pool writes the mean of emb's rows into the reused pooled buffer.
func (a *A2C) pool(emb *nn.Mat) *nn.Mat {
	a.pooled = nn.Reuse(a.pooled, 1, emb.C)
	return nn.MeanRowsInto(a.pooled, emb)
}

// Stats summarizes one update.
type Stats struct {
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
}

// grow returns buf resliced to n values, reallocating only when its
// capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Update performs one A2C step over a trajectory of transitions using
// discounted Monte-Carlo returns bootstrapped from the critic's value of
// the final state. It trains encoder, actor and critic jointly.
func (a *A2C) Update(batch []Transition) Stats {
	if len(batch) == 0 {
		return Stats{}
	}
	// Compute returns back-to-front, bootstrapping with the value of the
	// last state (continuing task).
	a.returns = grow(a.returns, len(batch))
	returns := a.returns
	last := batch[len(batch)-1]
	run := a.Value(last.Graph, last.X)
	for i := len(batch) - 1; i >= 0; i-- {
		run = batch[i].Reward + a.Gamma*run
		returns[i] = run
	}

	for _, p := range a.params() {
		p.Grad.Zero()
	}
	var st Stats
	for i, tr := range batch {
		if tr.Action < 0 || tr.Action >= tr.Graph.N {
			panic(fmt.Sprintf("rl: action %d out of range %d", tr.Action, tr.Graph.N))
		}
		// Forward pass (fresh caches for this transition).
		emb := a.Enc.Forward(tr.Graph, tr.X)
		logits := a.Actor.Forward(emb).Data
		a.probs = grow(a.probs, len(logits))
		probs := nn.SoftmaxRowInto(a.probs, logits, tr.Mask)

		v := a.Critic.Forward(a.pool(emb)).At(0, 0)
		adv := returns[i] - v

		// Critic gradient: d/dv of (ret - v)^2 = -2 adv.
		a.dV.Data[0] = -2 * adv / float64(len(batch))
		dPooled := a.Critic.Backward(a.dV)

		// Actor gradient: policy-gradient through masked softmax plus
		// entropy bonus. dL/dlogit_j = (π_j − 1{j=a})·A − β·dH/dlogit_j,
		// with dH/dlogit_j = −π_j (log π_j + H).
		ent := 0.0
		for _, p := range probs {
			if p > 0 {
				ent -= p * math.Log(p)
			}
		}
		st.Entropy += ent
		a.dLogits = nn.Reuse(a.dLogits, tr.Graph.N, 1)
		dLogits := a.dLogits
		scale := 1.0 / float64(len(batch))
		for j, p := range probs {
			if tr.Mask != nil && !tr.Mask[j] {
				dLogits.Data[j] = 0 // masked logits receive no gradient
				continue
			}
			g := p * adv
			if j == tr.Action {
				g -= adv
			}
			// entropy derivative
			if p > 0 {
				g += a.Entropy * p * (math.Log(p) + ent)
			}
			dLogits.Data[j] = g * scale
		}
		dEmbActor := a.Actor.Backward(dLogits)

		// Combine embedding gradients: actor path + critic pooled path.
		a.dEmb = nn.Reuse(a.dEmb, dEmbActor.R, dEmbActor.C)
		dEmb := a.dEmb
		inv := 1.0 / float64(emb.R)
		for r := 0; r < emb.R; r++ {
			row, src := dEmb.Row(r), dEmbActor.Row(r)
			for c, v := range src {
				row[c] = v + dPooled.Data[c]*inv
			}
		}
		a.Enc.Backward(dEmb)

		if probs[tr.Action] > 0 {
			st.PolicyLoss += -math.Log(probs[tr.Action]) * adv * scale
		}
		st.ValueLoss += adv * adv * scale
	}
	nn.ClipGrads(a.params(), 5)
	a.opt.Step(a.params())
	st.Entropy /= float64(len(batch))
	return st
}

// Sample draws an index from the distribution probs with one
// rng.Float64() draw, by inverse CDF. When rounding leaves Σp below the
// draw it returns the last index with p > 0 — never a masked-out
// (p = 0) entry — and len(probs)-1 only if every p is zero.
func Sample(rng *rand.Rand, probs []float64) int {
	x := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x < acc {
			return i
		}
	}
	for i := len(probs) - 1; i >= 0; i-- {
		if probs[i] > 0 {
			return i
		}
	}
	return len(probs) - 1
}

// SAC is a discrete Soft Actor-Critic agent: twin Q heads, entropy
// temperature, and target networks with polyak averaging. It backs the
// GNN-SAC baseline of Figure 11(c). The paper notes SAC "struggles to
// calculate strategy differences" versus A2C's advantage mechanism.
type SAC struct {
	Enc         gnn.Encoder
	Actor       *nn.MLP
	Q1, Q2      *nn.MLP
	T1, T2      *nn.MLP // target copies of Q1/Q2
	Gamma       float64
	Alpha       float64 // entropy temperature
	Tau         float64 // polyak factor
	optPi, optQ *nn.Adam
	rng         *rand.Rand
}

// NewSAC builds a discrete SAC agent over embDim encoder outputs.
func NewSAC(enc gnn.Encoder, embDim int, rng *rand.Rand) *SAC {
	mk := func() *nn.MLP { return nn.NewMLP(rng, embDim, 256, 128, 32, 1) }
	s := &SAC{
		Enc: enc, Actor: mk(), Q1: mk(), Q2: mk(),
		Gamma: 0.95, Alpha: 0.05, Tau: 0.05,
		optPi: nn.NewAdam(LearningRate), optQ: nn.NewAdam(LearningRate),
		rng: rng,
	}
	s.T1 = cloneMLP(s.Q1, embDim, rng)
	s.T2 = cloneMLP(s.Q2, embDim, rng)
	copyParams(s.T1, s.Q1)
	copyParams(s.T2, s.Q2)
	return s
}

func cloneMLP(src *nn.MLP, embDim int, rng *rand.Rand) *nn.MLP {
	return nn.NewMLP(rng, embDim, 256, 128, 32, 1)
}

func copyParams(dst, src *nn.MLP) {
	dp, sp := dst.Params(), src.Params()
	for i := range dp {
		copy(dp[i].Val.Data, sp[i].Val.Data)
	}
}

func polyak(dst, src *nn.MLP, tau float64) {
	dp, sp := dst.Params(), src.Params()
	for i := range dp {
		for j := range dp[i].Val.Data {
			dp[i].Val.Data[j] = (1-tau)*dp[i].Val.Data[j] + tau*sp[i].Val.Data[j]
		}
	}
}

// Probs returns the masked SAC policy.
func (s *SAC) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	emb := s.Enc.Forward(g, x)
	out := s.Actor.Forward(emb)
	logits := make([]float64, g.N)
	for i := range logits {
		logits[i] = out.At(i, 0)
	}
	return nn.SoftmaxRow(logits, mask)
}

// SelectAction samples from the masked policy.
func (s *SAC) SelectAction(g *gnn.Graph, x *nn.Mat, mask []bool) int {
	return Sample(s.rng, s.Probs(g, x, mask))
}

// Update performs one SAC step over consecutive transitions (each next
// state is the following transition's state; the last bootstraps from
// itself).
func (s *SAC) Update(batch []Transition) Stats {
	if len(batch) == 0 {
		return Stats{}
	}
	var st Stats
	// --- Q update ---
	qparams := append(append(s.Enc.Params(), s.Q1.Params()...), s.Q2.Params()...)
	for _, p := range qparams {
		p.Grad.Zero()
	}
	scale := 1.0 / float64(len(batch))
	for i, tr := range batch {
		next := tr
		if i+1 < len(batch) {
			next = batch[i+1]
		}
		// Target: r + γ Σ_a' π(a'|s') (minQ'(s',a') − α log π(a'|s')).
		nextEmb := s.Enc.Forward(next.Graph, next.X)
		nextOut := s.Actor.Forward(nextEmb)
		nl := make([]float64, next.Graph.N)
		for j := range nl {
			nl[j] = nextOut.At(j, 0)
		}
		np := nn.SoftmaxRow(nl, next.Mask)
		t1 := s.T1.Forward(nextEmb)
		t2 := s.T2.Forward(nextEmb)
		target := 0.0
		for j, p := range np {
			if p <= 0 {
				continue
			}
			q := math.Min(t1.At(j, 0), t2.At(j, 0))
			target += p * (q - s.Alpha*math.Log(p))
		}
		y := tr.Reward + s.Gamma*target

		emb := s.Enc.Forward(tr.Graph, tr.X)
		q1 := s.Q1.Forward(emb)
		q2 := s.Q2.Forward(emb)
		d1 := q1.At(tr.Action, 0) - y
		d2 := q2.At(tr.Action, 0) - y
		st.ValueLoss += (d1*d1 + d2*d2) * scale

		dq1 := nn.NewMat(emb.R, 1)
		dq1.Set(tr.Action, 0, 2*d1*scale)
		dq2 := nn.NewMat(emb.R, 1)
		dq2.Set(tr.Action, 0, 2*d2*scale)
		dEmb := s.Q1.Backward(dq1)
		nn.AddInPlace(dEmb, s.Q2.Backward(dq2))
		s.Enc.Backward(dEmb)
	}
	nn.ClipGrads(qparams, 5)
	s.optQ.Step(qparams)

	// --- policy update ---
	piparams := s.Actor.Params()
	for _, p := range piparams {
		p.Grad.Zero()
	}
	for _, tr := range batch {
		emb := s.Enc.Forward(tr.Graph, tr.X)
		out := s.Actor.Forward(emb)
		logits := make([]float64, tr.Graph.N)
		for j := range logits {
			logits[j] = out.At(j, 0)
		}
		probs := nn.SoftmaxRow(logits, tr.Mask)
		q1 := s.Q1.Forward(emb)
		q2 := s.Q2.Forward(emb)
		// L = Σ_a π(a)(α log π(a) − minQ(a)); dL/dlogit via softmax chain.
		// g_j = π_j [ (α log π_j − q_j) − Σ_k π_k (α log π_k − q_k) + α ]
		// minus the same for the baseline; compact form below.
		mean := 0.0
		vals := make([]float64, tr.Graph.N)
		for j, p := range probs {
			if p <= 0 {
				continue
			}
			vals[j] = s.Alpha*math.Log(p) - math.Min(q1.At(j, 0), q2.At(j, 0))
			mean += p * vals[j]
			st.PolicyLoss += p * vals[j] * scale
		}
		dLogits := nn.NewMat(tr.Graph.N, 1)
		for j, p := range probs {
			if tr.Mask != nil && !tr.Mask[j] {
				continue
			}
			if p <= 0 {
				continue
			}
			g := p * (vals[j] - mean + s.Alpha)
			dLogits.Set(j, 0, g*scale)
		}
		s.Actor.Backward(dLogits)
	}
	nn.ClipGrads(piparams, 5)
	s.optPi.Step(piparams)

	polyak(s.T1, s.Q1, s.Tau)
	polyak(s.T2, s.Q2, s.Tau)
	return st
}

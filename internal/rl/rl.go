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

const (
	// discount is both agents' reward discount γ.
	discount = 0.95
	// entropyBonus is A2C's entropy-bonus coefficient β.
	entropyBonus = 0.01
	// sacAlpha is SAC's entropy temperature α.
	sacAlpha = 0.05
	// sacTau is SAC's polyak factor τ for the target networks.
	sacTau = 0.05
	// maxProbsCaches bounds A2C.Probs' per-input caches; DCG-BE keeps
	// one input matrix per BE type, five in the default catalog.
	maxProbsCaches = 8
)

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
	Enc    gnn.Encoder
	Actor  *nn.MLP // per-node embedding -> logit (shared weights)
	Critic *nn.MLP // mean-pooled embedding -> state value

	// gamma and entropy start at discount and entropyBonus; only the
	// in-package learning tests change them.
	gamma, entropy float64

	opt *nn.Adam

	// Reused across calls: the trainables, the distribution Probs
	// returns, and Update's per-transition scratch.
	ps             []*nn.Param
	returns, probs []float64
	pooled, dV     *nn.Mat
	dLogits, dEmb  *nn.Mat

	// Probs' per-input caches for the GraphSAGE encoder, at most
	// maxProbsCaches; once all are taken, a new input replaces them in
	// turn, evict being the next.
	caches []*probsCache
	evict  int

	// WarmHits counts Probs calls served from a warm cache, and
	// ActorRows the node rows the actor computed, over all Probs calls.
	WarmHits, ActorRows int64
}

// probsCache is Probs' state for one input matrix, valid at the
// parameter version it was filled at: the encoder's cached rows and the
// actor logit of every node.
type probsCache struct {
	x       *nn.Mat
	version int
	enc     gnn.RowCache
	logits  []float64
}

// NewA2C builds the agent for embDim-sized encoder outputs.
func NewA2C(enc gnn.Encoder, embDim int, rng *rand.Rand) *A2C {
	return &A2C{
		Enc:     enc,
		Actor:   nn.NewMLP(rng, embDim, 256, 128, 32, 1),
		Critic:  nn.NewMLP(rng, embDim, 256, 128, 32, 1),
		gamma:   discount,
		entropy: entropyBonus,
		opt:     nn.NewAdam(LearningRate),
		dV:      nn.NewMat(1, 1),
	}
}

// params returns all trainables (encoder + heads).
func (a *A2C) params() []*nn.Param {
	if a.ps == nil {
		a.ps = append(append(a.Enc.Params(), a.Actor.Params()...), a.Critic.Params()...)
	}
	return a.ps
}

// Probs returns the masked action distribution π(a|s) in a buffer the
// agent owns, valid until its next Probs or Update.
//
// With the GraphSAGE encoder, Probs keeps a cache per input matrix x
// (by pointer): the features it last saw, the encoder's hidden rows and
// every node's logit. A caller that rewrites one matrix in place pays
// only for the nodes the change reaches (SAGE.ForwardDirty), and the
// actor, which is row-local, runs on just those rows. A cache is
// dropped when any parameter's Steps has moved since it was filled, so
// an Update invalidates every cache; a direct write to the weights
// does not. The result is bit for bit that of a full forward.
func (a *A2C) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	var logits []float64
	if sage, ok := a.Enc.(*gnn.SAGE); ok {
		c := a.cacheFor(x)
		emb, rows, full := sage.ForwardDirty(&c.enc, g, x)
		if full {
			c.logits = grow(c.logits, g.N)
		} else {
			a.WarmHits++
		}
		if len(rows) > 0 {
			for k, v := range a.Actor.Forward(emb).Data { // one logit per row
				c.logits[rows[k]] = v
			}
		}
		a.ActorRows += int64(len(rows))
		logits = c.logits
	} else {
		logits = a.Actor.Forward(a.Enc.Forward(g, x)).Data // N×1: one logit per node
		a.ActorRows += int64(len(logits))
	}
	a.probs = grow(a.probs, len(logits))
	return nn.SoftmaxRowInto(a.probs, logits, mask)
}

// cacheFor returns x's cache, emptied when it is new or was filled at
// another parameter version.
func (a *A2C) cacheFor(x *nn.Mat) *probsCache {
	version := 0
	for _, p := range a.params() {
		version += p.Steps
	}
	var c *probsCache
	for _, e := range a.caches {
		if e.x == x {
			c = e
			break
		}
	}
	if c == nil {
		if len(a.caches) < maxProbsCaches {
			c = &probsCache{}
			a.caches = append(a.caches, c)
		} else {
			c = a.caches[a.evict]
			a.evict = (a.evict + 1) % maxProbsCaches
		}
		c.x = x
		c.enc.Reset()
	}
	if c.version != version {
		c.version = version
		c.enc.Reset()
	}
	return c
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
		run = batch[i].Reward + float64(a.gamma*run)
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
				ent -= float64(p * math.Log(p))
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
			g := float64(p * adv)
			if j == tr.Action {
				g -= adv
			}
			// entropy derivative
			if p > 0 {
				g += float64(a.entropy * p * (math.Log(p) + ent))
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
				row[c] = v + float64(dPooled.Data[c]*inv)
			}
		}
		a.Enc.Backward(dEmb)

		if probs[tr.Action] > 0 {
			st.PolicyLoss += float64(-math.Log(probs[tr.Action]) * adv * scale)
		}
		st.ValueLoss += float64(adv * adv * scale)
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
	optPi, optQ *nn.Adam
}

// NewSAC builds a discrete SAC agent over embDim encoder outputs.
func NewSAC(enc gnn.Encoder, embDim int, rng *rand.Rand) *SAC {
	mk := func() *nn.MLP { return nn.NewMLP(rng, embDim, 256, 128, 32, 1) }
	s := &SAC{
		Enc: enc, Actor: mk(), Q1: mk(), Q2: mk(),
		optPi: nn.NewAdam(LearningRate), optQ: nn.NewAdam(LearningRate),
	}
	s.T1, s.T2 = mk(), mk()
	copyParams(s.T1, s.Q1)
	copyParams(s.T2, s.Q2)
	return s
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
			dp[i].Val.Data[j] = float64((1-tau)*dp[i].Val.Data[j]) + float64(tau*sp[i].Val.Data[j])
		}
	}
}

// Probs returns the masked SAC policy, in a new slice the caller owns.
func (s *SAC) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	return nn.SoftmaxRow(s.Actor.Forward(s.Enc.Forward(g, x)).Data, mask) // N×1 logits
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
		np := nn.SoftmaxRow(s.Actor.Forward(nextEmb).Data, next.Mask)
		t1 := s.T1.Forward(nextEmb)
		t2 := s.T2.Forward(nextEmb)
		target := 0.0
		for j, p := range np {
			if p <= 0 {
				continue
			}
			q := math.Min(t1.At(j, 0), t2.At(j, 0))
			target += float64(p * (q - float64(sacAlpha*math.Log(p))))
		}
		y := tr.Reward + float64(discount*target)

		emb := s.Enc.Forward(tr.Graph, tr.X)
		q1 := s.Q1.Forward(emb)
		q2 := s.Q2.Forward(emb)
		d1 := q1.At(tr.Action, 0) - y
		d2 := q2.At(tr.Action, 0) - y
		st.ValueLoss += float64((float64(d1*d1) + float64(d2*d2)) * scale)

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
		probs := nn.SoftmaxRow(s.Actor.Forward(emb).Data, tr.Mask)
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
			vals[j] = float64(sacAlpha*math.Log(p)) - math.Min(q1.At(j, 0), q2.At(j, 0))
			mean += float64(p * vals[j])
			st.PolicyLoss += float64(p * vals[j] * scale)
		}
		dLogits := nn.NewMat(tr.Graph.N, 1)
		for j, p := range probs {
			if tr.Mask != nil && !tr.Mask[j] {
				continue
			}
			if p <= 0 {
				continue
			}
			g := p * (vals[j] - mean + sacAlpha)
			dLogits.Set(j, 0, g*scale)
		}
		s.Actor.Backward(dLogits)
	}
	nn.ClipGrads(piparams, 5)
	s.optPi.Step(piparams)

	polyak(s.T1, s.Q1, sacTau)
	polyak(s.T2, s.Q2, sacTau)
	return st
}

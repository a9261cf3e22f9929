package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// incOracle runs A2C.Probs' incremental path against a full forward: two
// agents built from one seed see the same operations, inc through
// Probs, ref through Enc.Forward and Actor.Forward over every node, and
// after each inference their distributions, inc's cached logits and the
// encoders' rng streams must agree bit for bit.
type incOracle struct {
	g, g2          *gnn.Graph
	inc, ref       *A2C
	incRng, refRng *rand.Rand // the encoders' sampling streams
	// xs are the input matrices inc rewrites in place, one per BE type.
	xs    []*nn.Mat
	probs int
}

const incTypes = 3

func newIncOracle(seed int64, clusters, per int) *incOracle {
	o := &incOracle{g: clusterGraph(clusters, per), g2: clusterGraph(clusters+1, per)}
	build := func() (*A2C, *rand.Rand) {
		rng := rand.New(rand.NewSource(seed))
		return NewA2C(gnn.NewSAGE(rng, 3, 7, 32, 32), 32, rng), rng
	}
	o.inc, o.incRng = build()
	o.ref, o.refRng = build()
	vals := rand.New(rand.NewSource(seed + 1))
	for k := 0; k < incTypes; k++ {
		x := nn.NewMat(o.g.N, 7)
		for i := range x.Data {
			x.Data[i] = vals.Float64()
		}
		o.xs = append(o.xs, x)
	}
	return o
}

// featureValue maps a byte to a feature value: zeros of both signs,
// negatives (so the encoder's ReLUs cut) and ordinary magnitudes.
func featureValue(b byte) float64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return float64(b)/64 - 1.5
}

// run applies ops four bytes at a time, (op, a, b, c), then infers on
// every type once more.
func (o *incOracle) run(t testing.TB, ops []byte) {
	t.Helper()
	for len(ops) >= 4 {
		op, a, b, c := ops[0], int(ops[1]), int(ops[2]), ops[3]
		ops = ops[4:]
		x := o.xs[a%incTypes]
		switch op % 8 {
		case 0, 1: // one feature of one node
			x.Set(b%x.R, int(c)%7, featureValue(c/7))
		case 2: // a burst: every feature of a run of nodes
			for i := 0; i <= int(c)%4; i++ {
				row := x.Row((b + i) % x.R)
				for j := range row {
					row[j] = featureValue(c + byte(7*i+j))
				}
			}
		case 3, 4: // an inference, masked or not
			var mask []bool
			if op%8 == 4 {
				mask = make([]bool, x.R)
				for i := range mask {
					mask[i] = (i+b)%3 != 0
				}
			}
			o.check(t, o.g, x, mask)
		case 5: // an update over clones of the current inputs
			batch := make([]Transition, 1+int(c)%3)
			for i := range batch {
				xi := o.xs[(a+i)%incTypes]
				batch[i] = Transition{Graph: o.g, X: xi.Clone(), Action: (b + i) % xi.R, Reward: float64(c) / 255}
			}
			o.inc.Update(batch)
			o.ref.Update(batch)
		case 6: // inference on another graph: both encoders redraw
			x2 := nn.NewMat(o.g2.N, 7)
			for i := range x2.Data {
				x2.Data[i] = featureValue(c + byte(i))
			}
			o.check(t, o.g2, x2, nil)
		case 7: // a new matrix for a type: a fresh cache entry
			o.xs[a%incTypes] = x.Clone()
			o.check(t, o.g, o.xs[a%incTypes], nil)
		}
	}
	for _, x := range o.xs {
		o.check(t, o.g, x, nil)
	}
}

func (o *incOracle) check(t testing.TB, g *gnn.Graph, x *nn.Mat, mask []bool) {
	t.Helper()
	o.probs++
	got := append([]float64(nil), o.inc.Probs(g, x, mask)...)
	logits := o.ref.Actor.Forward(o.ref.Enc.Forward(g, x)).Data
	want := nn.SoftmaxRow(logits, mask)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("inference %d: p[%d] = %v incrementally, %v in full", o.probs, i, got[i], want[i])
		}
	}
	// Masked nodes' probabilities are 0 either way; their cached logits
	// must match too.
	for _, c := range o.inc.caches {
		if c.x != x {
			continue
		}
		for i, v := range logits {
			if math.Float64bits(c.logits[i]) != math.Float64bits(v) {
				t.Fatalf("inference %d: cached logit[%d] = %v, %v in full", o.probs, i, c.logits[i], v)
			}
		}
	}
	if a, b := o.incRng.Int63(), o.refRng.Int63(); a != b {
		t.Fatalf("inference %d: the encoders' rng streams diverged", o.probs)
	}
}

// TestA2CProbsIncrementalMatchesFull is the 256-seed differential:
// random row mutations over alternating input matrices, masks,
// interleaved updates, a second graph and fresh matrices.
func TestA2CProbsIncrementalMatchesFull(t *testing.T) {
	warm := int64(0)
	for seed := int64(0); seed < 256; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newIncOracle(seed, 2+int(seed%3), 3+int(seed%2))
		ops := make([]byte, 4*(12+rng.Intn(12)))
		rng.Read(ops)
		// Updates are the costly operation; keep about one per run.
		for i := 0; i < len(ops); i += 4 {
			if ops[i]%8 == 5 && rng.Intn(3) > 0 {
				ops[i] = 3
			}
		}
		o.run(t, ops)
		warm += o.inc.WarmHits
	}
	if warm == 0 {
		t.Fatal("no inference was served from a warm cache")
	}
}

// FuzzIncrementalProbs drives the same oracle from fuzzed operations.
func FuzzIncrementalProbs(f *testing.F) {
	f.Add([]byte{0, 0, 1, 9, 3, 0, 0, 0, 2, 1, 4, 200, 4, 1, 2, 3})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 5, 17, 3, 0, 0, 0, 5, 1, 2, 3, 3, 0, 0, 0})
	f.Add([]byte{6, 0, 0, 1, 3, 1, 0, 0, 7, 1, 0, 0, 1, 1, 3, 255, 3, 1, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*64 {
			ops = ops[:4*64]
		}
		o := newIncOracle(int64(len(ops)), 3, 3)
		o.run(t, ops)
	})
}

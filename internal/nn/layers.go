package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	Val  *Mat
	Grad *Mat
	// Steps counts the optimizer steps applied to Val: the parameter's
	// policy version. A direct write to Val does not advance it.
	Steps int
}

// Layer is one differentiable stage: Forward caches what Backward needs;
// Backward consumes dOut (∂L/∂output) and returns ∂L/∂input while
// accumulating parameter gradients.
//
// Dense and ReLU return matrices they own: a result stays valid until
// the same layer's next Forward (for Forward results) or Backward (for
// Backward results), and callers that need it longer copy it.
type Layer interface {
	Forward(x *Mat) *Mat
	Backward(dOut *Mat) *Mat
	Params() []*Param
}

// Dense is a fully-connected layer: y = xW + b.
type Dense struct {
	W, B *Param
	x    *Mat // cached input
	// Layer-owned buffers: the forward output, ∂L/∂x and the per-call
	// xᵀ·dOut that is added into W.Grad.
	y, dx, dw *Mat
}

// NewDense creates a Dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	w := NewMat(in, out)
	XavierInit(w, rng)
	return &Dense{
		W: &Param{Name: fmt.Sprintf("dense%dx%d.W", in, out), Val: w, Grad: NewMat(in, out)},
		B: &Param{Name: fmt.Sprintf("dense%dx%d.b", in, out), Val: NewMat(1, out), Grad: NewMat(1, out)},
	}
}

// Forward computes xW + b for a batch x (rows = samples).
func (d *Dense) Forward(x *Mat) *Mat {
	d.x = x
	d.y = Reuse(d.y, x.R, d.W.Val.C)
	out := MatMulInto(d.y, x, d.W.Val)
	for i := 0; i < out.R; i++ {
		row := out.Row(i)
		for j, b := range d.B.Val.Data {
			row[j] += b
		}
	}
	return out
}

// Backward accumulates dW = xᵀ·dOut, dB = Σrows dOut, returns dOut·Wᵀ.
func (d *Dense) Backward(dOut *Mat) *Mat {
	d.accumGrads(dOut)
	d.dx = Reuse(d.dx, dOut.R, d.W.Val.R)
	return MatMulTransBInto(d.dx, dOut, d.W.Val)
}

// backwardGated is Backward followed by r.Backward, for the ReLU r that
// produced this layer's input: ∂L/∂x is computed only where r's mask is
// set and is +0 elsewhere, exactly what r.Backward would leave. The
// result is owned by d.
func (d *Dense) backwardGated(dOut *Mat, r *ReLU) *Mat {
	d.accumGrads(dOut)
	d.dx = Reuse(d.dx, dOut.R, d.W.Val.R)
	return matMulTransBMasked(d.dx, dOut, d.W.Val, r.mask)
}

func (d *Dense) accumGrads(dOut *Mat) {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	d.dw = Reuse(d.dw, d.W.Val.R, d.W.Val.C)
	AddInPlace(d.W.Grad, MatMulTransAInto(d.dw, d.x, dOut))
	for i := 0; i < dOut.R; i++ {
		row := dOut.Row(i)
		for j, v := range row {
			d.B.Grad.Data[j] += v
		}
	}
}

// Params returns the layer's trainables.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask  []bool
	y, dx *Mat // layer-owned Forward and Backward results
}

// Forward zeroes negatives and remembers the active mask.
func (r *ReLU) Forward(x *Mat) *Mat {
	r.y = Reuse(r.y, x.R, x.C)
	out := r.y
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range x.Data {
		if v > 0 {
			r.mask[i] = true
			out.Data[i] = v
		} else {
			r.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

// Backward gates the gradient by the forward mask.
func (r *ReLU) Backward(dOut *Mat) *Mat {
	r.dx = Reuse(r.dx, dOut.R, dOut.C)
	out := r.dx
	for i, v := range dOut.Data {
		if r.mask[i] {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Params returns nil (no trainables).
func (r *ReLU) Params() []*Param { return nil }

// MLP is a feed-forward stack: Dense→ReLU repeated, final Dense linear.
// The paper's actor and critic are MLPs with hidden sizes 256/128/32.
// Forward and Backward results are owned by the stack's outermost
// layers (see Layer).
type MLP struct {
	layers []Layer
	params []*Param
}

// NewMLP builds an MLP with the given layer sizes, e.g.
// NewMLP(rng, 16, 256, 128, 32, 4) for the paper's 3-hidden-layer nets.
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, NewDense(sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			m.layers = append(m.layers, &ReLU{})
		}
	}
	for _, l := range m.layers {
		m.params = append(m.params, l.Params()...)
	}
	m.params = m.params[:len(m.params):len(m.params)] // appends copy
	return m
}

// Forward runs the stack.
func (m *MLP) Forward(x *Mat) *Mat {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the stack in reverse, returning ∂L/∂input. Each Dense
// above a ReLU computes its input gradient through that ReLU's mask in
// one pass.
func (m *MLP) Backward(dOut *Mat) *Mat {
	for i := len(m.layers) - 1; i >= 0; i-- {
		if d, ok := m.layers[i].(*Dense); ok && i > 0 {
			if r, ok := m.layers[i-1].(*ReLU); ok {
				dOut = d.backwardGated(dOut, r)
				i--
				continue
			}
		}
		dOut = m.layers[i].Backward(dOut)
	}
	return dOut
}

// Params returns all trainables, in layer order. The slice is shared:
// callers may append to it but must not assign its elements.
func (m *MLP) Params() []*Param { return m.params }

// Adam is the Adam optimizer with the paper's defaults
// (lr 2e-4, β1 0.9, β2 0.999, ε 1e-8).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam creates an optimizer with learning rate lr.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param][]float64{}, v: map[*Param][]float64{}}
}

// Step applies one Adam update to the params from their gradients and
// advances each one's Steps, then leaves gradients untouched (callers
// usually zero them afterwards).
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		p.Steps++
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Val.Data))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.Val.Data))
			a.v[p] = v
		}
		for i, g := range p.Grad.Data {
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*g)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*g*g)
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Val.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// ClipGrads scales all gradients so their global L2 norm is at most c.
func ClipGrads(params []*Param, c float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += float64(g * g)
		}
	}
	norm := math.Sqrt(total)
	if norm <= c || norm == 0 {
		return
	}
	s := c / norm
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= s
		}
	}
}

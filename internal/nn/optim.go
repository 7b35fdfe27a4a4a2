package nn

import "math"

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and clears the gradients.
	Step(params []*Param)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity map[*Param][]float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: map[*Param][]float64{}}
}

// Step implements Optimizer.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if o.Momentum > 0 {
			v := o.velocity[p]
			if v == nil {
				v = make([]float64, len(p.W))
				o.velocity[p] = v
			}
			for i := range p.W {
				v[i] = o.Momentum*v[i] - o.LR*p.G[i]
				p.W[i] += v[i]
			}
		} else {
			for i := range p.W {
				p.W[i] -= o.LR * p.G[i]
			}
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer (Kingma & Ba), the DTM's default: incremental
// updates on a stream of new observations need per-parameter step-size
// adaptation to stay stable.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns Adam with the conventional β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: map[*Param][]float64{}, v: map[*Param][]float64{},
	}
}

// Step implements Optimizer.
func (o *Adam) Step(params []*Param) { o.StepScaled(params, 1) }

// StepScaled is Step on every gradient multiplied by scale — the factor
// ClipScale returns — applied as the update loop reads each gradient, so
// clipping costs no pass of its own. The product is the value a separate
// scaling pass would have stored, and multiplying by 1 is exact, so
// StepScaled(params, ClipScale(params, n)) equals ClipGradients(params, n)
// then Step(params), and StepScaled(params, 1) equals Step(params).
//
// The hyperparameters are read into locals once per step, and each
// gradient is cleared in the same loop rather than in a second pass
// (ZeroGrad). Once β₁ᵗ < 2⁻⁵⁴ (t ≥ 356 at β₁ = 0.9) the bias correction
// 1−β₁ᵗ rounds to exactly 1, and the division by it, an identity from then
// on, is skipped.
func (o *Adam) StepScaled(params []*Param, scale float64) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	lr, b1, b2, eps := o.LR, o.Beta1, o.Beta2, o.Epsilon
	c1, c2 := 1-b1, 1-b2
	for _, p := range params {
		m := o.m[p]
		if m == nil {
			m = make([]float64, len(p.W))
			o.m[p] = m
		}
		v := o.v[p]
		if v == nil {
			v = make([]float64, len(p.W))
			o.v[p] = v
		}
		w, grad := p.W, p.G[:len(p.W)]
		m, v = m[:len(w)], v[:len(w)]
		// Two copies of one loop, so that neither branches per element.
		if bc1 != 1 { //wfvet:ignore floateq x/1 is exactly x, so only an exactly-one divisor may be skipped
			for i := range w {
				g := grad[i] * scale
				grad[i] = 0
				mi := b1*m[i] + c1*g
				vi := b2*v[i] + c2*g*g
				m[i], v[i] = mi, vi
				w[i] -= lr * (mi / bc1) / (math.Sqrt(vi/bc2) + eps)
			}
			continue
		}
		for i := range w {
			g := grad[i] * scale
			grad[i] = 0
			mi := b1*m[i] + c1*g
			vi := b2*v[i] + c2*g*g
			m[i], v[i] = mi, vi
			w[i] -= lr * mi / (math.Sqrt(vi/bc2) + eps)
		}
	}
}

// Moments returns Adam's first and second moment estimates for p (nil
// before p's first step), for audits that pin the optimizer state.
func (o *Adam) Moments(p *Param) (m, v []float64) { return o.m[p], o.v[p] }

// ClipGradients scales gradients down so their global L2 norm is at most
// maxNorm, stabilizing incremental updates on small, skewed batches.
func ClipGradients(params []*Param, maxNorm float64) {
	scale := ClipScale(params, maxNorm)
	if scale == 1 { //wfvet:ignore floateq 1 is ClipScale's exact "no clipping" result
		return
	}
	for _, p := range params {
		for i := range p.G {
			p.G[i] *= scale
		}
	}
}

// ClipScale returns the factor ClipGradients multiplies every gradient
// by: maxNorm/‖g‖ when the global L2 norm ‖g‖ exceeds maxNorm, else 1.
func ClipScale(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.G {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm || norm == 0 { //wfvet:ignore floateq guards the division; only an exactly-zero norm is degenerate
		return 1
	}
	return maxNorm / norm
}

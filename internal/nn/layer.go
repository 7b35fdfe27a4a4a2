// Package nn is a small, dependency-free neural-network library built for
// the DeepTune Model (§3.2 of the paper): dense layers with ReLU and
// dropout, Gaussian RBF layers for the uncertainty branch, the Adam and SGD
// optimizers, and the three losses the DTM trains with — categorical
// cross-entropy for crash prediction, Kendall & Gal's heteroscedastic
// regression loss for performance-with-uncertainty, and the Chamfer
// distance regularizer that fits RBF centroids to the data distribution.
//
// The library works on flat []float64 vectors. Every layer has a
// sample-at-a-time Forward/Backward (the Layer interface); the layers the
// DTM trains and scores with also have minibatch kernels (Dense.ForwardBatch
// and BackwardBatch, Dropout.ForwardBatch) that process four samples per
// pass over the weights. Each sample's arithmetic runs in the same order
// as in the scalar methods, so both give bit-identical results; the
// scalar methods are the reference the kernels are tested against.
package nn

import (
	"math"

	"wayfinder/internal/rng"
)

// Param is one trainable tensor, stored flat, with its gradient
// accumulator.
type Param struct {
	W []float64 // weights
	G []float64 // accumulated gradients
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Layer is a differentiable computation stage.
type Layer interface {
	// Forward computes the layer output for input x. When train is true,
	// stochastic layers (dropout) sample a fresh mask. The layer caches
	// what Backward needs; Forward/Backward pairs must not be interleaved
	// across samples.
	Forward(x []float64, train bool) []float64
	// Backward consumes dL/d(output) and returns dL/d(input), adding
	// parameter gradients to the layer's Params.
	Backward(grad []float64) []float64
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutDim returns the layer's output width.
	OutDim() int
}

// Dense is a fully-connected layer: y = W·x + b.
type Dense struct {
	In, Out int
	Weight  *Param // Out×In, row-major
	Bias    *Param // Out

	x []float64 // cached input
	y []float64
	g []float64 // reusable input-grad buffer
}

// NewDense returns a dense layer with He-uniform initialization, the
// standard choice ahead of ReLU activations.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		Weight: &Param{W: make([]float64, in*out), G: make([]float64, in*out)},
		Bias:   &Param{W: make([]float64, out), G: make([]float64, out)},
		y:      make([]float64, out),
		g:      make([]float64, in),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.Weight.W {
		d.Weight.W[i] = (2*r.Float64() - 1) * limit
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64, _ bool) []float64 {
	d.x = x
	for o := 0; o < d.Out; o++ {
		sum := d.Bias.W[o]
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		d.y[o] = sum
	}
	return d.y
}

// ForwardBatch computes y = W·x + b for a whole batch of inputs, writing
// row j of ys for row j of xs. The kernel is blocked over four samples and
// two outputs: each pass over the inputs loads two weight rows and four
// input rows and feeds eight independent dot products, where Forward runs
// one serial chain of adds per output and so waits on every add. Blocking
// changes only which dot products share a pass, never the order of one
// dot product's adds: each still starts from the bias and adds
// row[i]·x[i] in i order, so the results are bit-identical to len(xs)
// scalar Forward calls. The layer's Backward caches are untouched, so
// ForwardBatch is safe to interleave with scalar Forward/Backward pairs.
func (d *Dense) ForwardBatch(xs, ys [][]float64) {
	in, out := d.In, d.Out
	w, bias := d.Weight.W[:in*out], d.Bias.W[:out]
	j := 0
	for ; j+4 <= len(xs); j += 4 {
		x0, x1, x2, x3 := xs[j][:in], xs[j+1][:in], xs[j+2][:in], xs[j+3][:in]
		y0, y1, y2, y3 := ys[j][:out], ys[j+1][:out], ys[j+2][:out], ys[j+3][:out]
		o := 0
		for ; o+2 <= out; o += 2 {
			ra, rb := w[o*in:][:in], w[(o+1)*in:][:in]
			a0, a1, a2, a3 := bias[o], bias[o], bias[o], bias[o]
			b0, b1, b2, b3 := bias[o+1], bias[o+1], bias[o+1], bias[o+1]
			for i, wa := range ra {
				// One input value at a time, used by both rows, keeps the
				// eight accumulators in registers.
				wb := rb[i]
				v := x0[i]
				a0 += wa * v
				b0 += wb * v
				v = x1[i]
				a1 += wa * v
				b1 += wb * v
				v = x2[i]
				a2 += wa * v
				b2 += wb * v
				v = x3[i]
				a3 += wa * v
				b3 += wb * v
			}
			y0[o], y1[o], y2[o], y3[o] = a0, a1, a2, a3
			y0[o+1], y1[o+1], y2[o+1], y3[o+1] = b0, b1, b2, b3
		}
		if o < out {
			row := w[o*in:][:in]
			a0, a1, a2, a3 := bias[o], bias[o], bias[o], bias[o]
			for i, wa := range row {
				a0 += wa * x0[i]
				a1 += wa * x1[i]
				a2 += wa * x2[i]
				a3 += wa * x3[i]
			}
			y0[o], y1[o], y2[o], y3[o] = a0, a1, a2, a3
		}
	}
	// Past the last block of four samples, each sample runs four outputs
	// per pass, again four independent chains.
	for ; j < len(xs); j++ {
		x, y := xs[j][:in], ys[j][:out]
		o := 0
		for ; o+4 <= out; o += 4 {
			r0, r1, r2, r3 := w[o*in:][:in], w[(o+1)*in:][:in], w[(o+2)*in:][:in], w[(o+3)*in:][:in]
			s0, s1, s2, s3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			for i, v := range x {
				s0 += r0[i] * v
				s1 += r1[i] * v
				s2 += r2[i] * v
				s3 += r3[i] * v
			}
			y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			sum := bias[o]
			for i, wi := range w[o*in:][:in] {
				sum += wi * x[i]
			}
			y[o] = sum
		}
	}
}

// BackwardBatch is Backward over a minibatch: given the inputs xs the
// batch was forwarded on and dL/d(output) per sample in grads, it adds the
// weight and bias gradients of every sample to the layer's Params and,
// when gxs is non-nil, writes each sample's dL/d(input) to gxs. A caller
// that needs no input gradient (the first layer) passes nil and skips that
// work entirely.
//
// The result is bit-identical to calling Backward once per sample in
// order: each Weight.G and Bias.G element receives its per-sample terms in
// sample order, each input gradient receives its per-output terms in
// output order, and exactly-zero output gradients are skipped as Backward
// skips them. The kernels block four terms per pass — four samples' rows
// into one weight-gradient row, four weight rows into one input gradient —
// so each accumulator is loaded and stored once per four adds.
func (d *Dense) BackwardBatch(xs, grads, gxs [][]float64) {
	var acc axpy4
	for o := 0; o < d.Out; o++ {
		grow := d.Weight.G[o*d.In : (o+1)*d.In]
		for s, g := range grads {
			if g[o] == 0 { //wfvet:ignore floateq sparsity skip; only exactly-zero gradients are safe to skip
				continue
			}
			d.Bias.G[o] += g[o]
			acc.add(grow, g[o], xs[s])
		}
		acc.flush(grow)
	}
	if gxs == nil {
		return
	}
	for s, g := range grads {
		gx := gxs[s][:d.In]
		for i := range gx {
			gx[i] = 0
		}
		for o, go_ := range g[:d.Out] {
			if go_ == 0 { //wfvet:ignore floateq sparsity skip; only exactly-zero gradients are safe to skip
				continue
			}
			acc.add(gx, go_, d.Weight.W[o*d.In:(o+1)*d.In])
		}
		acc.flush(gx)
	}
}

// axpy4 queues up to four scaled rows for one destination and adds them
// in a single pass: dst[i] += c[0]·v[0][i], then += c[1]·v[1][i], and so
// on in queue order — the per-element order of that many separate
// dst[i] += c·v[i] loops, with one load and store of dst[i] per pass.
type axpy4 struct {
	c [4]float64
	v [4][]float64
	n int
}

// add queues c·v for dst, running the pass once four rows are queued.
// Every add until the next flush must name the same dst.
func (a *axpy4) add(dst []float64, c float64, v []float64) {
	a.c[a.n], a.v[a.n] = c, v
	a.n++
	if a.n == 4 {
		a.flush(dst)
	}
}

// flush adds the queued rows into dst, in one pass however many are
// queued, and empties the queue.
func (a *axpy4) flush(dst []float64) {
	n := len(dst)
	c0, c1, c2, c3 := a.c[0], a.c[1], a.c[2], a.c[3]
	switch a.n {
	case 4:
		v0, v1, v2, v3 := a.v[0][:n], a.v[1][:n], a.v[2][:n], a.v[3][:n]
		for i, s := range dst {
			s += c0 * v0[i]
			s += c1 * v1[i]
			s += c2 * v2[i]
			s += c3 * v3[i]
			dst[i] = s
		}
	case 3:
		v0, v1, v2 := a.v[0][:n], a.v[1][:n], a.v[2][:n]
		for i, s := range dst {
			s += c0 * v0[i]
			s += c1 * v1[i]
			s += c2 * v2[i]
			dst[i] = s
		}
	case 2:
		v0, v1 := a.v[0][:n], a.v[1][:n]
		for i, s := range dst {
			s += c0 * v0[i]
			s += c1 * v1[i]
			dst[i] = s
		}
	case 1:
		v0 := a.v[0][:n]
		for i, s := range dst {
			s += c0 * v0[i]
			dst[i] = s
		}
	}
	a.n = 0
}

// Backward implements Layer.
func (d *Dense) Backward(grad []float64) []float64 {
	for i := range d.g {
		d.g[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		go_ := grad[o]
		if go_ == 0 { //wfvet:ignore floateq sparsity skip; only exactly-zero gradients are safe to skip
			continue
		}
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		grow := d.Weight.G[o*d.In : (o+1)*d.In]
		for i, xi := range d.x {
			grow[i] += go_ * xi
			d.g[i] += go_ * row[i]
		}
		d.Bias.G[o] += go_
	}
	return d.g
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// OutDim implements Layer.
func (d *Dense) OutDim() int { return d.Out }

// ReLU is the rectified linear activation.
type ReLU struct {
	dim int
	y   []float64
	g   []float64
}

// NewReLU returns a ReLU over dim features.
func NewReLU(dim int) *ReLU {
	return &ReLU{dim: dim, y: make([]float64, dim), g: make([]float64, dim)}
}

// Forward implements Layer.
func (l *ReLU) Forward(x []float64, _ bool) []float64 {
	for i, v := range x {
		if v > 0 {
			l.y[i] = v
		} else {
			l.y[i] = 0
		}
	}
	return l.y
}

// Backward implements Layer.
func (l *ReLU) Backward(grad []float64) []float64 {
	for i := range grad {
		if l.y[i] > 0 {
			l.g[i] = grad[i]
		} else {
			l.g[i] = 0
		}
	}
	return l.g
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// OutDim implements Layer.
func (l *ReLU) OutDim() int { return l.dim }

// Dropout zeroes each activation with probability P during training and
// scales the survivors by 1/(1-P) (inverted dropout), so inference needs
// no rescaling.
type Dropout struct {
	P   float64
	rng *rng.RNG

	dim  int
	mask []float64
	y    []float64
	g    []float64
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(dim int, p float64, r *rng.RNG) *Dropout {
	return &Dropout{
		P: p, rng: r, dim: dim,
		mask: make([]float64, dim),
		y:    make([]float64, dim),
		g:    make([]float64, dim),
	}
}

// Forward implements Layer.
func (l *Dropout) Forward(x []float64, train bool) []float64 {
	if !train || l.P <= 0 {
		copy(l.y, x)
		for i := range l.mask {
			l.mask[i] = 1
		}
		return l.y
	}
	keep := 1 - l.P
	for i, v := range x {
		if l.rng.Float64() < l.P {
			l.mask[i] = 0
			l.y[i] = 0
		} else {
			l.mask[i] = 1 / keep
			l.y[i] = v / keep
		}
	}
	return l.y
}

// ForwardBatch is the training-mode Forward over a minibatch: it samples
// a fresh mask per sample, in sample order, writing row j of ys and masks
// for row j of xs (ys may alias xs). The layer's RNG is drawn exactly as
// len(xs) training Forward calls draw it, so the masks and outputs are
// bit-identical; the gradient is dL/dy times the mask, as in Backward.
func (l *Dropout) ForwardBatch(xs, ys, masks [][]float64) {
	keep := 1 - l.P
	for j, x := range xs {
		y, mask := ys[j][:len(x)], masks[j][:len(x)]
		if l.P <= 0 {
			copy(y, x)
			for i := range mask {
				mask[i] = 1
			}
			continue
		}
		for i, v := range x {
			if l.rng.Float64() < l.P {
				mask[i] = 0
				y[i] = 0
			} else {
				mask[i] = 1 / keep
				y[i] = v / keep
			}
		}
	}
}

// Backward implements Layer.
func (l *Dropout) Backward(grad []float64) []float64 {
	for i := range grad {
		l.g[i] = grad[i] * l.mask[i]
	}
	return l.g
}

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// OutDim implements Layer.
func (l *Dropout) OutDim() int { return l.dim }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward runs the chain.
func (s *Sequential) Forward(x []float64, train bool) []float64 {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward back-propagates through the chain.
func (s *Sequential) Backward(grad []float64) []float64 {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params collects all trainable parameters.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Sigmoid returns 1/(1+e^-x) computed stably.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

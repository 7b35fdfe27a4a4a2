package nn

import (
	"math"
	"testing"

	"wayfinder/internal/rng"
)

// numericalGrad estimates dL/dw for one weight by central differences.
func numericalGrad(w *float64, loss func() float64) float64 {
	const h = 1e-5
	orig := *w
	*w = orig + h
	lp := loss()
	*w = orig - h
	lm := loss()
	*w = orig
	return (lp - lm) / (2 * h)
}

func TestDenseForward(t *testing.T) {
	d := NewDense(2, 1, rng.New(1))
	copy(d.Weight.W, []float64{2, 3})
	d.Bias.W[0] = 1
	y := d.Forward([]float64{4, 5}, false)
	if y[0] != 2*4+3*5+1 {
		t.Fatalf("forward = %v", y[0])
	}
}

func TestDenseGradientCheck(t *testing.T) {
	r := rng.New(2)
	d := NewDense(3, 2, r)
	x := []float64{0.5, -1.2, 2.0}
	target := []float64{1.0, -0.5}
	loss := func() float64 {
		y := d.Forward(x, false)
		sum := 0.0
		for i := range y {
			l, _ := MSELoss(y[i], target[i])
			sum += l
		}
		return sum
	}
	// Analytical gradients.
	y := d.Forward(x, false)
	grad := make([]float64, 2)
	for i := range y {
		_, g := MSELoss(y[i], target[i])
		grad[i] = g
	}
	gx := d.Backward(grad)
	for i := range d.Weight.W {
		want := numericalGrad(&d.Weight.W[i], loss)
		if math.Abs(d.Weight.G[i]-want) > 1e-6 {
			t.Fatalf("weight grad[%d] = %v, numerical %v", i, d.Weight.G[i], want)
		}
	}
	for i := range d.Bias.W {
		want := numericalGrad(&d.Bias.W[i], loss)
		if math.Abs(d.Bias.G[i]-want) > 1e-6 {
			t.Fatalf("bias grad[%d] = %v, numerical %v", i, d.Bias.G[i], want)
		}
	}
	// Input gradient via perturbing x.
	for i := range x {
		want := numericalGrad(&x[i], loss)
		if math.Abs(gx[i]-want) > 1e-6 {
			t.Fatalf("input grad[%d] = %v, numerical %v", i, gx[i], want)
		}
	}
}

func TestReLU(t *testing.T) {
	l := NewReLU(3)
	y := l.Forward([]float64{-1, 0, 2}, false)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Fatalf("relu forward = %v", y)
	}
	g := l.Backward([]float64{5, 5, 5})
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Fatalf("relu backward = %v", g)
	}
}

func TestDropoutEval(t *testing.T) {
	l := NewDropout(4, 0.5, rng.New(3))
	x := []float64{1, 2, 3, 4}
	y := l.Forward(x, false)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
}

func TestDropoutTrainScaling(t *testing.T) {
	r := rng.New(4)
	l := NewDropout(1, 0.5, r)
	sum, n := 0.0, 20000
	for i := 0; i < n; i++ {
		y := l.Forward([]float64{1}, true)
		sum += y[0]
	}
	// Inverted dropout keeps E[y] = x.
	if mean := sum / float64(n); math.Abs(mean-1) > 0.05 {
		t.Fatalf("dropout expectation = %v, want ~1", mean)
	}
}

func TestDropoutBackwardUsesMask(t *testing.T) {
	r := rng.New(5)
	l := NewDropout(8, 0.5, r)
	y := l.Forward([]float64{1, 1, 1, 1, 1, 1, 1, 1}, true)
	g := l.Backward([]float64{1, 1, 1, 1, 1, 1, 1, 1})
	for i := range y {
		if (y[i] == 0) != (g[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if s := Sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s >= 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
}

func TestCrossEntropyLogits(t *testing.T) {
	loss, grad := CrossEntropyLogits([]float64{0, 0}, 0)
	if math.Abs(loss-math.Log(2)) > 1e-9 {
		t.Fatalf("uniform CE = %v", loss)
	}
	if math.Abs(grad[0]+0.5) > 1e-9 || math.Abs(grad[1]-0.5) > 1e-9 {
		t.Fatalf("CE grad = %v", grad)
	}
	// Confident correct prediction → near-zero loss.
	loss, _ = CrossEntropyLogits([]float64{10, -10}, 0)
	if loss > 1e-6 {
		t.Fatalf("confident CE = %v", loss)
	}
}

func TestBCEMatchesGradient(t *testing.T) {
	for _, tc := range []struct{ z, t float64 }{{0.3, 1}, {-2, 0}, {5, 0}, {-5, 1}} {
		z := tc.z
		loss := func() float64 {
			l, _ := BinaryCrossEntropyLogit(z, tc.t)
			return l
		}
		_, g := BinaryCrossEntropyLogit(z, tc.t)
		want := numericalGrad(&z, loss)
		if math.Abs(g-want) > 1e-6 {
			t.Fatalf("BCE grad(z=%v,t=%v) = %v, numerical %v", tc.z, tc.t, g, want)
		}
	}
}

func TestHeteroscedasticGradients(t *testing.T) {
	mu, s, y := 1.3, -0.4, 2.0
	lossMu := func() float64 { l, _, _ := HeteroscedasticLoss(mu, s, y); return l }
	_, dMu, dS := HeteroscedasticLoss(mu, s, y)
	if want := numericalGrad(&mu, lossMu); math.Abs(dMu-want) > 1e-6 {
		t.Fatalf("dMu = %v, numerical %v", dMu, want)
	}
	lossS := func() float64 { l, _, _ := HeteroscedasticLoss(mu, s, y); return l }
	if want := numericalGrad(&s, lossS); math.Abs(dS-want) > 1e-6 {
		t.Fatalf("dLogVar = %v, numerical %v", dS, want)
	}
}

func TestHeteroscedasticAttenuation(t *testing.T) {
	// Larger predicted variance must shrink the residual penalty.
	lLow, _, _ := HeteroscedasticLoss(0, -2, 3)
	lHigh, _, _ := HeteroscedasticLoss(0, 2, 3)
	if lHigh >= lLow {
		t.Fatalf("high-variance loss %v should be below low-variance %v for a large residual", lHigh, lLow)
	}
}

func TestRBFForwardRange(t *testing.T) {
	r := rng.New(6)
	b := NewRBFBank(3, 5, 0.5, r)
	phi := b.Forward([]float64{0.1, -0.3, 0.7}, false)
	for _, p := range phi {
		if p < 0 || p > 1 {
			t.Fatalf("activation out of range: %v", p)
		}
	}
}

func TestRBFPeakAtCentroid(t *testing.T) {
	r := rng.New(7)
	b := NewRBFBank(2, 1, 0.1, r)
	copy(b.Centroids.W, []float64{0.5, -0.5})
	phi := b.Forward([]float64{0.5, -0.5}, false)
	if phi[0] != 1 {
		t.Fatalf("activation at centroid = %v, want 1", phi[0])
	}
	far := b.Forward([]float64{5, 5}, false)
	if far[0] > 1e-10 {
		t.Fatalf("activation far away = %v, want ~0", far[0])
	}
}

func TestRBFGradientCheck(t *testing.T) {
	r := rng.New(8)
	b := NewRBFBank(2, 3, 0.7, r)
	x := []float64{0.2, -0.1}
	loss := func() float64 {
		phi := b.Forward(x, false)
		sum := 0.0
		for _, p := range phi {
			sum += p * p // arbitrary downstream loss ½Σφ² ·2
		}
		return sum
	}
	phi := b.Forward(x, false)
	grad := make([]float64, len(phi))
	for i, p := range phi {
		grad[i] = 2 * p
	}
	gx := b.Backward(grad)
	for i := range b.Centroids.W {
		want := numericalGrad(&b.Centroids.W[i], loss)
		if math.Abs(b.Centroids.G[i]-want) > 1e-5 {
			t.Fatalf("centroid grad[%d] = %v, numerical %v", i, b.Centroids.G[i], want)
		}
	}
	for i := range x {
		want := numericalGrad(&x[i], loss)
		if math.Abs(gx[i]-want) > 1e-5 {
			t.Fatalf("input grad[%d] = %v, numerical %v", i, gx[i], want)
		}
	}
}

func TestRBFOutlierSignal(t *testing.T) {
	// After fitting centroids to a cluster, a far-away sample must produce a
	// much lower max activation — the DTM's uncertainty mechanism.
	r := rng.New(9)
	b := NewRBFBank(2, 4, 0.5, r)
	var batch [][]float64
	for i := 0; i < 50; i++ {
		batch = append(batch, []float64{r.Normal(0, 0.3), r.Normal(0, 0.3)})
	}
	opt := NewSGD(0.05, 0)
	for epoch := 0; epoch < 200; epoch++ {
		b.ChamferLoss(batch)
		opt.Step(b.Params())
	}
	inlier := b.MaxActivation([]float64{0, 0})
	outlier := b.MaxActivation([]float64{6, 6})
	if inlier < 0.5 {
		t.Fatalf("inlier activation = %v, centroids did not fit data", inlier)
	}
	if outlier > 0.01 {
		t.Fatalf("outlier activation = %v, should be near zero", outlier)
	}
}

func TestChamferDecreases(t *testing.T) {
	r := rng.New(10)
	b := NewRBFBank(2, 3, 0.5, r)
	var batch [][]float64
	for i := 0; i < 30; i++ {
		batch = append(batch, []float64{r.Normal(2, 0.5), r.Normal(-1, 0.5)})
	}
	first := b.ChamferLoss(batch)
	for i := range b.Centroids.G {
		b.Centroids.G[i] = 0
	}
	opt := NewSGD(0.05, 0)
	for epoch := 0; epoch < 100; epoch++ {
		b.ChamferLoss(batch)
		opt.Step(b.Params())
	}
	last := b.ChamferLoss(batch)
	if last >= first/2 {
		t.Fatalf("Chamfer loss %v did not substantially decrease from %v", last, first)
	}
}

func TestChamferEmptyBatch(t *testing.T) {
	b := NewRBFBank(2, 3, 0.5, rng.New(11))
	if l := b.ChamferLoss(nil); l != 0 {
		t.Fatalf("empty-batch Chamfer = %v", l)
	}
}

// trainXOR trains a tiny network on XOR with the given optimizer and
// returns the final accuracy.
func trainXOR(t *testing.T, opt Optimizer) float64 {
	t.Helper()
	r := rng.New(12)
	net := &Sequential{Layers: []Layer{
		NewDense(2, 8, r),
		NewReLU(8),
		NewDense(8, 1, r),
	}}
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		for i, x := range xs {
			out := net.Forward(x, true)
			_, g := BinaryCrossEntropyLogit(out[0], ys[i])
			net.Backward([]float64{g})
		}
		opt.Step(net.Params())
	}
	correct := 0
	for i, x := range xs {
		out := net.Forward(x, false)
		if (Sigmoid(out[0]) > 0.5) == (ys[i] > 0.5) {
			correct++
		}
	}
	return float64(correct) / 4
}

func TestXORWithAdam(t *testing.T) {
	if acc := trainXOR(t, NewAdam(0.01)); acc != 1 {
		t.Fatalf("Adam XOR accuracy = %v", acc)
	}
}

func TestXORWithSGDMomentum(t *testing.T) {
	if acc := trainXOR(t, NewSGD(0.1, 0.9)); acc != 1 {
		t.Fatalf("SGD XOR accuracy = %v", acc)
	}
}

func TestHeteroscedasticRegressionLearnsNoise(t *testing.T) {
	// Fit y = 2x with input-dependent noise; the model should learn a
	// higher predicted variance in the noisy region.
	r := rng.New(13)
	net := &Sequential{Layers: []Layer{
		NewDense(1, 16, r),
		NewReLU(16),
		NewDense(16, 2, r), // [mu, logVar]
	}}
	opt := NewAdam(0.005)
	for epoch := 0; epoch < 3000; epoch++ {
		x := r.Float64() // [0,1)
		noise := 0.02
		if x > 0.5 {
			noise = 0.5
		}
		y := 2*x + r.Normal(0, noise)
		out := net.Forward([]float64{x}, true)
		_, dMu, dS := HeteroscedasticLoss(out[0], out[1], y)
		net.Backward([]float64{dMu, dS})
		opt.Step(net.Params())
	}
	quiet := net.Forward([]float64{0.25}, false)[1]
	noisy := net.Forward([]float64{0.75}, false)[1]
	if noisy <= quiet {
		t.Fatalf("predicted logVar: quiet=%v noisy=%v — should be larger in noisy region", quiet, noisy)
	}
	mu := net.Forward([]float64{0.25}, false)[0]
	if math.Abs(mu-0.5) > 0.15 {
		t.Fatalf("mean prediction at 0.25 = %v, want ~0.5", mu)
	}
}

func TestClipGradients(t *testing.T) {
	p := &Param{W: make([]float64, 2), G: []float64{3, 4}} // norm 5
	ClipGradients([]*Param{p}, 1)
	norm := math.Hypot(p.G[0], p.G[1])
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("clipped norm = %v", norm)
	}
	// Below threshold: untouched.
	p2 := &Param{W: make([]float64, 1), G: []float64{0.5}}
	ClipGradients([]*Param{p2}, 1)
	if p2.G[0] != 0.5 {
		t.Fatal("under-norm gradients should be unchanged")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := rng.New(14)
	d := NewDense(3, 2, r)
	snap := NewSnapshot()
	snap.Meta["app"] = "redis"
	if err := snap.Save([]string{"w", "b"}, d.Params()); err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Meta["app"] != "redis" {
		t.Fatal("meta lost")
	}
	d2 := NewDense(3, 2, rng.New(99))
	if err := snap2.Restore([]string{"w", "b"}, d2.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range d.Weight.W {
		if d.Weight.W[i] != d2.Weight.W[i] {
			t.Fatal("weights differ after restore")
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	d := NewDense(2, 2, rng.New(15))
	snap := NewSnapshot()
	if err := snap.Save([]string{"only-one"}, d.Params()); err == nil {
		t.Fatal("mismatched name count should fail")
	}
	if err := snap.Restore([]string{"w", "b"}, d.Params()); err == nil {
		t.Fatal("restore of missing tensors should fail")
	}
	snap.Tensors["w"] = []float64{1}
	snap.Tensors["b"] = []float64{1, 2}
	if err := snap.Restore([]string{"w", "b"}, d.Params()); err == nil {
		t.Fatal("wrong-length tensor should fail")
	}
	if _, err := DecodeSnapshot([]byte("{bad")); err == nil {
		t.Fatal("bad JSON should fail")
	}
}

func BenchmarkDenseForward(b *testing.B) {
	r := rng.New(1)
	d := NewDense(512, 64, r)
	x := make([]float64, 512)
	for i := range x {
		x[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x, false)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	r := rng.New(1)
	d := NewDense(512, 64, r)
	opt := NewAdam(0.001)
	for i := range d.Weight.G {
		d.Weight.G[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(d.Params())
	}
}

// kernelBatch returns n random input rows of dim features and n output
// gradient rows of out entries in which about half the entries are
// exactly zero, as a ReLU or a dropout mask leaves them; one row is
// entirely zero and one gradient entry is negative zero.
func kernelBatch(r *rng.RNG, n, dim, out int) (xs, grads [][]float64) {
	for s := 0; s < n; s++ {
		x := make([]float64, dim)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		g := make([]float64, out)
		for o := range g {
			if s != 2 && r.Bool() {
				g[o] = r.NormFloat64()
			}
		}
		xs, grads = append(xs, x), append(grads, g)
	}
	if n > 1 && out > 1 {
		grads[1][out-1] = math.Copysign(0, -1)
	}
	return xs, grads
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDenseBatchKernelsMatchScalar pins the blocked kernels to the scalar
// reference bit for bit: ForwardBatch against Forward, and BackwardBatch
// (with and without input gradients) against Backward called once per
// sample in order, for batch tails 1–7 past the four-sample blocks and an
// odd output count, with exactly-zero output gradients in the batch.
func TestDenseBatchKernelsMatchScalar(t *testing.T) {
	for _, shape := range [][2]int{{3, 5}, {13, 8}, {61, 7}} {
		in, out := shape[0], shape[1]
		for n := 1; n <= 11; n++ {
			r := rng.New(uint64(100*in + n))
			ref, blk := NewDense(in, out, rng.New(5)), NewDense(in, out, rng.New(5))
			xs, grads := kernelBatch(r, n, in, out)
			// An infinite input: a skipped zero gradient must not meet it,
			// or 0·Inf turns its weight gradient into NaN.
			xs[n-1][0] = math.Inf(1)
			// Start from non-zero accumulated gradients, as the second
			// minibatch of an epoch would if Step did not clear them.
			for i := range ref.Weight.G {
				ref.Weight.G[i] = r.NormFloat64()
			}
			copy(blk.Weight.G, ref.Weight.G)

			ys := make([][]float64, n)
			gxs := make([][]float64, n)
			for s := range ys {
				ys[s], gxs[s] = make([]float64, out), make([]float64, in)
			}
			blk.ForwardBatch(xs, ys)
			blk.BackwardBatch(xs, grads, gxs)
			for s, x := range xs {
				y := ref.Forward(x, true)
				if !sameBits(y, ys[s]) {
					t.Fatalf("%dx%d n=%d sample %d: ForwardBatch %v, Forward %v", in, out, n, s, ys[s], y)
				}
				gx := ref.Backward(grads[s])
				if !sameBits(gx, gxs[s]) {
					t.Fatalf("%dx%d n=%d sample %d: input gradient %v, Backward %v", in, out, n, s, gxs[s], gx)
				}
			}
			if !sameBits(blk.Weight.G, ref.Weight.G) || !sameBits(blk.Bias.G, ref.Bias.G) {
				t.Fatalf("%dx%d n=%d: BackwardBatch parameter gradients differ from Backward", in, out, n)
			}
			// Without input gradients the parameter gradients are the same.
			again := NewDense(in, out, rng.New(5))
			for i := range again.Weight.G {
				again.Weight.G[i] = blk.Weight.G[i]
			}
			copy(again.Bias.G, blk.Bias.G)
			blk.BackwardBatch(xs, grads, nil)
			again.BackwardBatch(xs, grads, gxs)
			if !sameBits(blk.Weight.G, again.Weight.G) || !sameBits(blk.Bias.G, again.Bias.G) {
				t.Fatalf("%dx%d n=%d: BackwardBatch without input gradients changed the parameter gradients", in, out, n)
			}
		}
	}
}

// TestDropoutBatchMatchesScalar checks that the batched training forward
// draws the same masks, in the same order, as per-sample Forward calls.
func TestDropoutBatchMatchesScalar(t *testing.T) {
	for _, p := range []float64{0, 0.3} {
		ref, blk := NewDropout(9, p, rng.New(4)), NewDropout(9, p, rng.New(4))
		xs, _ := kernelBatch(rng.New(6), 7, 9, 1)
		ys, masks := make([][]float64, len(xs)), make([][]float64, len(xs))
		for s := range xs {
			ys[s], masks[s] = make([]float64, 9), make([]float64, 9)
		}
		blk.ForwardBatch(xs, ys, masks)
		for s, x := range xs {
			y := ref.Forward(x, true)
			if !sameBits(y, ys[s]) || !sameBits(ref.mask, masks[s]) {
				t.Fatalf("p=%v sample %d: batch %v/%v, scalar %v/%v", p, s, ys[s], masks[s], y, ref.mask)
			}
		}
	}
}

// TestRBFKernelsMatchScalar checks MaxActivation (nearest-centroid
// shortcut) and MaxActivationBatch (two points and four centroids per
// pass) against the maximum over Forward, and ChamferLoss against a
// one-point, one-centroid-at-a-time reference, for centroid counts around
// the four-centroid blocks, an odd number of points, and a tie.
func TestRBFKernelsMatchScalar(t *testing.T) {
	for k := 0; k <= 9; k++ {
		b := NewRBFBank(5, k, 0.7, rng.New(uint64(k)))
		if k > 2 {
			copy(b.Centroids.W[2*5:3*5], b.Centroids.W[:5]) // a tie
		}
		zs, _ := kernelBatch(rng.New(uint64(20+k)), 6, 5, 1)
		if k > 0 {
			zs = append(zs, append([]float64(nil), b.Centroids.W[:5]...)) // on a centroid
		}
		if k > 1 {
			// Two points at exactly the same distance from centroid 1, the
			// nearest to both: the earlier one must win its term-2 pull.
			clear(b.Centroids.W[5:10])
			zs = append(zs, []float64{1, 0, 0, 0, 0}, []float64{0, 1, 0, 0, 0})
		}
		batch := make([]float64, len(zs))
		b.MaxActivationBatch(zs, batch)
		for r, z := range zs {
			want := 0.0
			for _, p := range b.Forward(z, false) {
				if p > want {
					want = p
				}
			}
			if got := b.MaxActivation(z); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d: MaxActivation %v, max Forward %v", k, got, want)
			}
			if math.Float64bits(batch[r]) != math.Float64bits(want) {
				t.Fatalf("k=%d row %d: MaxActivationBatch %v, max Forward %v", k, r, batch[r], want)
			}
		}
		if k == 0 {
			continue
		}
		// At Gamma 0 an exact hit on a centroid makes Forward's φ NaN,
		// which the maximum skips.
		flat := &RBFBank{In: b.In, K: b.K, Centroids: b.Centroids, phi: make([]float64, b.K)}
		onC := b.Centroids.W[:5]
		want := 0.0
		for _, p := range flat.Forward(onC, false) {
			if p > want {
				want = p
			}
		}
		one := make([]float64, 1)
		flat.MaxActivationBatch([][]float64{onC}, one)
		if a := flat.MaxActivation(onC); math.Float64bits(a) != math.Float64bits(want) || math.Float64bits(one[0]) != math.Float64bits(want) {
			t.Fatalf("k=%d, Gamma 0: MaxActivation %v, batch %v, max Forward %v", k, a, one[0], want)
		}
		ref := &RBFBank{In: b.In, K: b.K, Gamma: b.Gamma,
			Centroids: &Param{W: append([]float64(nil), b.Centroids.W...), G: make([]float64, len(b.Centroids.G))}}
		got, want := b.ChamferLoss(zs), chamferReference(ref, zs)
		if math.Float64bits(got) != math.Float64bits(want) || !sameBits(b.Centroids.G, ref.Centroids.G) {
			t.Fatalf("k=%d: ChamferLoss %v, reference %v (or gradients differ)", k, got, want)
		}
	}
}

// chamferReference is ChamferLoss scanning one centroid at a time.
func chamferReference(b *RBFBank, batch [][]float64) float64 {
	loss := 0.0
	invZ := 1 / float64(len(batch))
	nearestToC := make([]int, b.K)
	bestForC := make([]float64, b.K)
	for j := range bestForC {
		bestForC[j] = math.Inf(1)
	}
	for zi, z := range batch {
		best, bestJ := math.Inf(1), 0
		for j := 0; j < b.K; j++ {
			c := b.Centroids.W[j*b.In : (j+1)*b.In]
			d2 := 0.0
			for i := range z {
				d := z[i] - c[i]
				d2 += d * d
			}
			if d2 < best {
				best, bestJ = d2, j
			}
			if d2 < bestForC[j] {
				bestForC[j] = d2
				nearestToC[j] = zi
			}
		}
		loss += best * invZ
		c := b.Centroids.W[bestJ*b.In : (bestJ+1)*b.In]
		gc := b.Centroids.G[bestJ*b.In : (bestJ+1)*b.In]
		for i := range z {
			gc[i] += 2 * (c[i] - z[i]) * invZ
		}
	}
	invC := 1 / float64(b.K)
	for j := 0; j < b.K; j++ {
		z := batch[nearestToC[j]]
		c := b.Centroids.W[j*b.In : (j+1)*b.In]
		gc := b.Centroids.G[j*b.In : (j+1)*b.In]
		loss += bestForC[j] * invC
		for i := range z {
			gc[i] += 2 * (c[i] - z[i]) * invC
		}
	}
	return loss
}

// BenchmarkDenseForwardBatch and BenchmarkDenseBackwardBatch run one
// DeepTune minibatch (16 samples) through the served shape's first trunk
// layer, 397 features into 64 units; the backward pass computes weight
// gradients only, as for that layer in training.
func BenchmarkDenseForwardBatch(b *testing.B) {
	d := NewDense(397, 64, rng.New(1))
	xs, _ := kernelBatch(rng.New(2), 16, 397, 64)
	ys := make([][]float64, len(xs))
	for s := range ys {
		ys[s] = make([]float64, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ForwardBatch(xs, ys)
	}
}

func BenchmarkDenseBackwardBatch(b *testing.B) {
	d := NewDense(397, 64, rng.New(1))
	xs, grads := kernelBatch(rng.New(2), 16, 397, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.BackwardBatch(xs, grads, nil)
	}
}

// adamReference is the textbook Adam update, one parameter element at a
// time with no hoisting or skipped divisions: the reference Adam.Step is
// pinned to.
type adamReference struct {
	t    int
	m, v map[*Param][]float64
}

func (o *adamReference) step(params []*Param, lr float64) {
	// Variables, not constants: 1−β must round at run time as it does in
	// Adam, not exactly at compile time.
	beta1, beta2, eps := 0.9, 0.999, 1e-8
	o.t++
	bc1 := 1 - math.Pow(beta1, float64(o.t))
	bc2 := 1 - math.Pow(beta2, float64(o.t))
	for _, p := range params {
		if o.m[p] == nil {
			o.m[p], o.v[p] = make([]float64, len(p.W)), make([]float64, len(p.W))
		}
		m, v := o.m[p], o.v[p]
		for i := range p.W {
			g := p.G[i]
			m[i] = beta1*m[i] + (1-beta1)*g
			v[i] = beta2*v[i] + (1-beta2)*g*g
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			p.W[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
		}
		p.ZeroGrad()
	}
}

// TestAdamStepScaledMatchesReference pins the optimizer bit for bit to
// the textbook update after ClipGradients, over enough steps to pass the
// point (t = 356) where the first-moment bias correction becomes exactly
// 1 and its division is skipped, both when the norm is clipped and when
// it is not: Step after ClipGradients, and StepScaled with ClipScale's
// factor applied inside the update loop.
func TestAdamStepScaledMatchesReference(t *testing.T) {
	for _, maxNorm := range []float64{0.5, 1e9} {
		layers := []*Dense{NewDense(7, 5, rng.New(3)), NewDense(7, 5, rng.New(3)), NewDense(7, 5, rng.New(3))}
		ref := &adamReference{m: map[*Param][]float64{}, v: map[*Param][]float64{}}
		stepped, fused := NewAdam(0.01), NewAdam(0.01)
		r := rng.New(4)
		for step := 0; step < 400; step++ {
			for i := range layers[0].Weight.G {
				g := r.NormFloat64()
				for _, l := range layers {
					l.Weight.G[i] = g
				}
			}
			ClipGradients(layers[0].Params(), maxNorm)
			ref.step(layers[0].Params(), 0.01)
			ClipGradients(layers[1].Params(), maxNorm)
			stepped.Step(layers[1].Params())
			fused.StepScaled(layers[2].Params(), ClipScale(layers[2].Params(), maxNorm))
		}
		for k, p := range layers[0].Params() {
			for n, o := range []*Adam{stepped, fused} {
				q := layers[n+1].Params()[k]
				m, v := o.Moments(q)
				if !sameBits(p.W, q.W) || !sameBits(p.G, q.G) || !sameBits(ref.m[p], m) || !sameBits(ref.v[p], v) {
					t.Fatalf("maxNorm %v, param %d, optimizer %d: diverged from the reference update", maxNorm, k, n)
				}
			}
		}
	}
}

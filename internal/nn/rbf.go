package nn

import (
	"math"

	"wayfinder/internal/rng"
)

// RBFBank is a Gaussian Radial Basis Function layer (§3.2, Eq. 1): a set of
// K centroids c_j in the input space, each emitting
//
//	φ_j(z) = exp(−‖z − c_j‖² / (2γ²)).
//
// The centroids are learned prototypes of the training distribution; far
// from every prototype all activations collapse toward zero, which is what
// lets the DTM flag outliers and novel configurations with high
// uncertainty. The paper finds γ = 0.1 appropriate for z-scored features.
type RBFBank struct {
	In, K     int
	Gamma     float64
	Centroids *Param // K×In, row-major

	z   []float64 // cached input
	phi []float64

	// Scratch for ChamferLoss and MaxActivationBatch, allocated on first
	// use: nearest point and its distance per centroid, and two rows of
	// point-to-centroid distances.
	nearestToC []int
	bestForC   []float64
	dist       []float64
}

// NewRBFBank creates a bank of k centroids drawn from a standard normal,
// matching z-scored inputs.
func NewRBFBank(in, k int, gamma float64, r *rng.RNG) *RBFBank {
	b := &RBFBank{
		In: in, K: k, Gamma: gamma,
		Centroids: &Param{W: make([]float64, k*in), G: make([]float64, k*in)},
		phi:       make([]float64, k),
	}
	for i := range b.Centroids.W {
		b.Centroids.W[i] = r.NormFloat64()
	}
	return b
}

// Forward computes the K activations for input z.
func (b *RBFBank) Forward(z []float64, _ bool) []float64 {
	b.z = z
	inv := 1 / (2 * b.Gamma * b.Gamma)
	for j := 0; j < b.K; j++ {
		c := b.Centroids.W[j*b.In : (j+1)*b.In]
		d2 := 0.0
		for i, zi := range z {
			d := zi - c[i]
			d2 += d * d
		}
		b.phi[j] = math.Exp(-d2 * inv)
	}
	return b.phi
}

// Backward propagates dL/dφ to the centroids and the input.
func (b *RBFBank) Backward(grad []float64) []float64 {
	g := make([]float64, b.In)
	inv := 1 / (b.Gamma * b.Gamma)
	for j := 0; j < b.K; j++ {
		if grad[j] == 0 { //wfvet:ignore floateq sparsity skip; only exactly-zero gradients are safe to skip
			continue
		}
		c := b.Centroids.W[j*b.In : (j+1)*b.In]
		gc := b.Centroids.G[j*b.In : (j+1)*b.In]
		// dφ/dz_i = φ · (c_i − z_i)/γ² ; dφ/dc_i = −dφ/dz_i.
		scale := grad[j] * b.phi[j] * inv
		for i, zi := range b.z {
			d := c[i] - zi
			g[i] += scale * d
			gc[i] -= scale * d
		}
	}
	return g
}

// Params implements Layer.
func (b *RBFBank) Params() []*Param { return []*Param{b.Centroids} }

// OutDim implements Layer.
func (b *RBFBank) OutDim() int { return b.K }

// MaxActivation returns the largest activation for input z — the bank's
// confidence that z resembles a known prototype. 1−MaxActivation is the
// novelty/uncertainty signal.
//
// The activation is a monotone function of the squared distance, so the
// largest activation is the one of the nearest centroid: the value equals
// the maximum over Forward's outputs bit for bit, with one exp instead of
// K.
func (b *RBFBank) MaxActivation(z []float64) float64 {
	best := math.Inf(1)
	for j := 0; j < b.K; j++ {
		if d2 := b.sqDist(z, j); d2 < best {
			best = d2
		}
	}
	return b.activation(best)
}

// MaxActivationBatch writes MaxActivation(zs[r]) to out[r] for every row,
// computing the distances of two rows to four centroids per pass
// (sqDist2x4). The results are bit-identical to MaxActivation.
func (b *RBFBank) MaxActivationBatch(zs [][]float64, out []float64) {
	dist := b.distScratch()
	for r := 0; r < len(zs); r += 2 {
		b.pairDists(zs, r, dist)
		for k := 0; k < 2 && r+k < len(zs); k++ {
			best := math.Inf(1)
			for _, d2 := range dist[k*b.K : (k+1)*b.K] {
				if d2 < best {
					best = d2
				}
			}
			out[r+k] = b.activation(best)
		}
	}
}

// activation is φ for the nearest centroid's squared distance d2, as
// Forward computes it, reported as 0 when it is not positive: the maximum
// over Forward's outputs starts from 0 and skips a NaN (an exact hit on a
// centroid at Gamma 0).
func (b *RBFBank) activation(d2 float64) float64 {
	inv := 1 / (2 * b.Gamma * b.Gamma)
	if phi := math.Exp(-d2 * inv); phi > 0 {
		return phi
	}
	return 0
}

// sqDist returns ‖z − c_j‖², adding the squared differences in i order as
// Forward does.
func (b *RBFBank) sqDist(z []float64, j int) float64 {
	c := b.Centroids.W[j*b.In : (j+1)*b.In]
	z = z[:len(c)]
	d2 := 0.0
	for i, ci := range c {
		d := z[i] - ci
		d2 += d * d
	}
	return d2
}

// distScratch returns the bank's 2K-entry distance scratch, allocated on
// first use.
func (b *RBFBank) distScratch() []float64 {
	if len(b.dist) < 2*b.K {
		b.dist = make([]float64, 2*b.K)
	}
	return b.dist[:2*b.K]
}

// pairDists writes the squared distances of rows r and r+1 of zs to every
// centroid into dist[0:K] and dist[K:2K]. A last row without a partner is
// paired with itself, and its second copy ignored by the caller.
func (b *RBFBank) pairDists(zs [][]float64, r int, dist []float64) {
	z0, z1 := zs[r], zs[min(r+1, len(zs)-1)]
	j := 0
	for ; j+4 <= b.K; j += 4 {
		d := b.sqDist2x4(z0, z1, j)
		copy(dist[j:j+4], d[:4])
		copy(dist[b.K+j:b.K+j+4], d[4:])
	}
	for ; j < b.K; j++ {
		dist[j], dist[b.K+j] = b.sqDist(z0, j), b.sqDist(z1, j)
	}
}

// sqDist2x4 returns ‖z0 − c_j‖² … ‖z0 − c_{j+3}‖² and then the same for z1,
// in one pass over the inputs. Each distance adds its squared differences
// in i order, exactly as sqDist does; the eight chains are independent,
// so they overlap where one chain would wait on each add, and each
// centroid element loaded serves both rows.
func (b *RBFBank) sqDist2x4(z0, z1 []float64, j int) [8]float64 {
	n := b.In
	c0 := b.Centroids.W[j*n:][:n]
	c1 := b.Centroids.W[(j+1)*n:][:n]
	c2 := b.Centroids.W[(j+2)*n:][:n]
	c3 := b.Centroids.W[(j+3)*n:][:n]
	z0, z1 = z0[:n], z1[:n]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	for i, u := range z0 {
		v := z1[i]
		c := c0[i]
		d, e := u-c, v-c
		a0 += d * d
		b0 += e * e
		c = c1[i]
		d, e = u-c, v-c
		a1 += d * d
		b1 += e * e
		c = c2[i]
		d, e = u-c, v-c
		a2 += d * d
		b2 += e * e
		c = c3[i]
		d, e = u-c, v-c
		a3 += d * d
		b3 += e * e
	}
	return [8]float64{a0, a1, a2, a3, b0, b1, b2, b3}
}

// ChamferLoss computes the Chamfer distance (§3.2, L_Cham) between the
// bank's centroid set C and a batch of latent vectors Z:
//
//	L = (1/|Z|) Σ_z min_c ‖z−c‖² + (1/|C|) Σ_c min_z ‖c−z‖²
//
// and accumulates its gradient into the centroid parameter. Minimizing it
// spreads the centroids over the data distribution so that the prototypes
// fit the training data (the paper's stated purpose). The distances are
// computed for two points and four centroids per pass (sqDist2x4), then
// compared point by point in centroid order, so ties break toward the
// lower index and the earlier point as in a one-at-a-time scan.
func (b *RBFBank) ChamferLoss(batch [][]float64) float64 {
	if len(batch) == 0 || b.K == 0 {
		return 0
	}
	loss := 0.0
	// Term 1: each data point pulls its nearest centroid.
	invZ := 1 / float64(len(batch))
	if len(b.bestForC) < b.K {
		b.nearestToC = make([]int, b.K)
		b.bestForC = make([]float64, b.K)
	}
	nearestToC := b.nearestToC[:b.K] // index into batch of nearest z per centroid
	bestForC := b.bestForC[:b.K]
	for j := range bestForC {
		bestForC[j] = math.Inf(1)
	}
	dist := b.distScratch()
	for r := 0; r < len(batch); r += 2 {
		b.pairDists(batch, r, dist)
		for k := 0; k < 2 && r+k < len(batch); k++ {
			zi, z := r+k, batch[r+k]
			best, bestJ := math.Inf(1), 0
			for j, d2 := range dist[k*b.K : (k+1)*b.K] {
				if d2 < best {
					best, bestJ = d2, j
				}
				if d2 < bestForC[j] {
					bestForC[j] = d2
					nearestToC[j] = zi
				}
			}
			loss += best * invZ
			// ∂/∂c of ‖z−c‖² is 2(c−z), applied to the winning centroid only.
			c := b.Centroids.W[bestJ*b.In : (bestJ+1)*b.In]
			gc := b.Centroids.G[bestJ*b.In : (bestJ+1)*b.In]
			for i := range z {
				gc[i] += 2 * (c[i] - z[i]) * invZ
			}
		}
	}
	// Term 2: each centroid is pulled toward its nearest data point.
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

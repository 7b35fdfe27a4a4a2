// Package search defines Wayfinder's pluggable search-algorithm API
// (§3.1) and the four strategies the paper evaluates: random search, grid
// search, Bayesian optimization, and DeepTune — plus the Unicorn-style
// causal-inference comparator used in the Fig 7 scalability study.
//
// Searchers interact with the platform through Propose/Observe: the
// platform asks for the next configuration to evaluate and reports back
// the measured metric, whether the configuration crashed, and at which
// stage — exactly the information the paper's API exposes ("the history
// of configurations explored, the corresponding performance results,
// which configurations resulted in build failure or runtime crashes").
package search

import (
	"math"
	"time"

	"wayfinder/internal/causal"
	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/gp"
	"wayfinder/internal/rng"
)

// Observation is one evaluated configuration reported to a searcher.
type Observation struct {
	// Config is the evaluated configuration.
	Config *configspace.Config
	// X is its encoded feature vector.
	X []float64
	// Metric is the measured value (undefined when Crashed).
	Metric float64
	// Crashed reports any build/boot/run failure.
	Crashed bool
	// Stage names the failing stage ("build", "boot", "run", "ok").
	Stage string
}

// Decision-cost stopwatches. Searchers charge their own real compute
// time — the paper's Fig 8 "update time" axis — so these two helpers are
// deliberately wall-clock: they measure the strategy's actual CPU cost,
// never feed the virtual session clock, and never influence what a
// searcher proposes. Keeping the time.Now/time.Since pair here, behind
// two reviewed pragmas, is what lets the walltime analyzer ban the wall
// clock everywhere else in the package.

// accrue starts a stopwatch that adds its elapsed time to *cost when the
// returned func runs: `defer accrue(&s.cost)()`.
func accrue(cost *time.Duration) func() {
	start := time.Now() //wfvet:ignore walltime decision cost measures real compute time (Fig 8), never session-visible state
	return func() {
		*cost += time.Since(start) //wfvet:ignore walltime decision cost measures real compute time (Fig 8), never session-visible state
	}
}

// restart zeroes *cost and starts a fresh stopwatch — the convention of
// searchers whose DecisionCost reports the last call, not a running sum.
func restart(cost *time.Duration) func() {
	*cost = 0
	return accrue(cost)
}

// Searcher decides which configuration to evaluate next.
type Searcher interface {
	// Name identifies the strategy.
	Name() string
	// Propose returns the next configuration to evaluate.
	Propose() *configspace.Config
	// Observe reports an evaluation result.
	Observe(o Observation)
	// DecisionCost returns the wall-clock time spent inside the last
	// Propose+Observe pair (the paper's Fig 8 "update time").
	DecisionCost() time.Duration
}

// Windowed is the optional extension of searchers whose learned surrogate
// can run over a bounded sliding window of recent observations instead of
// the full history — the knob that turns an O(n²)-per-decision session
// into a constant-cost one on long runs. SetSurrogateWindow(0) restores
// unbounded history; implementations reject degenerate windows with an
// explicit error. Bayesian and DeepTune implement it; memoryless
// strategies (random, grid) have nothing to bound and do not.
type Windowed interface {
	Searcher
	// SetSurrogateWindow bounds the surrogate's training history to the
	// most recent n observations (0 = unbounded). It must be called before
	// or between decisions, never mid-batch.
	SetSurrogateWindow(n int) error
}

// Random is the random-search baseline: every proposal is drawn uniformly
// from the space, deduplicated against history ("continuously generating
// unique configurations with random values for each parameter").
type Random struct {
	space *configspace.Space
	rng   *rng.RNG
	seen  map[uint64]bool
	cost  time.Duration
}

// NewRandom returns a random searcher.
func NewRandom(space *configspace.Space, seed uint64) *Random {
	return &Random{space: space, rng: rng.New(seed), seen: map[uint64]bool{}}
}

// Name implements Searcher.
func (s *Random) Name() string { return "random" }

// Propose implements Searcher.
func (s *Random) Propose() *configspace.Config {
	defer restart(&s.cost)()
	for attempt := 0; attempt < 64; attempt++ {
		c := s.space.Random(s.rng)
		if !s.seen[c.Hash()] {
			s.seen[c.Hash()] = true
			return c
		}
	}
	// Space effectively exhausted near the sampler: accept a duplicate.
	return s.space.Random(s.rng)
}

// Observe implements Searcher.
func (s *Random) Observe(Observation) {}

// DecisionCost implements Searcher.
func (s *Random) DecisionCost() time.Duration { return s.cost }

// RandomMutate is the random baseline for compile-time exploration (§4.4):
// instead of resampling every parameter — which on a space with essential
// boot options produces almost no bootable kernels — each proposal
// re-draws K randomly-chosen parameters from the space's default (for
// Fig 10/11, the distro or Cozart baseline).
type RandomMutate struct {
	space *configspace.Space
	k     int
	rng   *rng.RNG
	seen  map[uint64]bool
	cost  time.Duration
}

// NewRandomMutate returns a mutation-based random searcher.
func NewRandomMutate(space *configspace.Space, k int, seed uint64) *RandomMutate {
	return &RandomMutate{space: space, k: k, rng: rng.New(seed), seen: map[uint64]bool{}}
}

// Name implements Searcher.
func (s *RandomMutate) Name() string { return "random" }

// Propose implements Searcher.
func (s *RandomMutate) Propose() *configspace.Config {
	defer restart(&s.cost)()
	base := s.space.Default()
	for attempt := 0; attempt < 64; attempt++ {
		c := s.space.Mutate(base, s.k, s.rng)
		if !s.seen[c.Hash()] {
			s.seen[c.Hash()] = true
			return c
		}
	}
	return s.space.Mutate(base, s.k, s.rng)
}

// Observe implements Searcher.
func (s *RandomMutate) Observe(Observation) {}

// DecisionCost implements Searcher.
func (s *RandomMutate) DecisionCost() time.Duration { return s.cost }

// Grid explores the space systematically, one parameter value after the
// other: for each parameter in turn it steps through a small value grid
// while holding everything else at the incumbent default. The paper omits
// grid search from the evaluation as "well-known to be inferior to random
// search on large configuration spaces" — it is provided for completeness
// and for small spaces.
//
// Grid implements BatchSearcher natively: ProposeBatch walks the ladder
// directly instead of funnelling every slot through the AsBatch
// pending-set adapter. The pending bookkeeping (skip candidates that
// collide with a dispatched-but-unobserved proposal, accept a duplicate
// after proposeAttempts tries) matches the adapter's policy exactly, so
// the native path proposes the same sequence the adapter would.
type Grid struct {
	space   *configspace.Space
	base    *configspace.Config
	pending map[uint64]int

	paramIdx int
	valueIdx int
	cost     time.Duration
}

// NewGrid returns a grid searcher starting from the space defaults.
func NewGrid(space *configspace.Space) *Grid {
	return &Grid{space: space, base: space.Default(), pending: map[uint64]int{}}
}

// Name implements Searcher.
func (s *Grid) Name() string { return "grid" }

// gridValues returns the value grid for a parameter: full domains for
// bool/tristate/enum, a geometric ladder for integers.
func gridValues(p *configspace.Param) []configspace.Value {
	switch p.Type {
	case configspace.Bool:
		return []configspace.Value{configspace.BoolValue(false), configspace.BoolValue(true)}
	case configspace.Tristate:
		return []configspace.Value{
			configspace.TriValue(configspace.TriNo),
			configspace.TriValue(configspace.TriModule),
			configspace.TriValue(configspace.TriYes),
		}
	case configspace.Enum:
		out := make([]configspace.Value, len(p.Values))
		for i, v := range p.Values {
			out[i] = configspace.EnumValue(v)
		}
		return out
	default:
		var out []configspace.Value
		span := p.Max - p.Min
		if span >= 0 && span <= 8 {
			for v := p.Min; v <= p.Max; v++ {
				out = append(out, configspace.IntValue(v))
			}
			return out
		}
		// Geometric ladder from Min toward Max. The step is sign-safe:
		// negative values shrink toward zero (v*4+1 would diverge to
		// -inf), and the multiply near MaxInt64 is overflow-guarded.
		for v := p.Min; v < p.Max; {
			out = append(out, configspace.IntValue(v))
			switch {
			case v < 0:
				v /= 4
			case v > (math.MaxInt64-1)/4:
				v = p.Max
			default:
				v = v*4 + 1
			}
		}
		out = append(out, configspace.IntValue(p.Max))
		return out
	}
}

// step advances the ladder by one proposal — the walk shared by Propose
// and ProposeBatch.
func (s *Grid) step() *configspace.Config {
	wraps := 0
	for {
		if s.paramIdx >= s.space.Len() {
			// Wrapped the whole space: restart. A second consecutive wrap
			// without yielding means nothing is sweepable (every parameter
			// Fixed or in a zero-weight class) — return the base rather
			// than spinning forever.
			wraps++
			if wraps > 1 || s.space.Len() == 0 {
				return s.base.Clone()
			}
			s.paramIdx, s.valueIdx = 0, 0
		}
		p := s.space.Param(s.paramIdx)
		if p.Fixed || s.space.ClassWeight(p.Class) <= 0 {
			s.paramIdx++
			s.valueIdx = 0
			continue
		}
		values := gridValues(p)
		if s.valueIdx >= len(values) {
			s.paramIdx++
			s.valueIdx = 0
			continue
		}
		c := s.base.Clone()
		c.SetIndex(s.paramIdx, values[s.valueIdx])
		s.valueIdx++
		return c
	}
}

// Propose implements Searcher.
func (s *Grid) Propose() *configspace.Config {
	defer accrue(&s.cost)()
	return s.step()
}

// ProposeBatch implements BatchSearcher natively: up to n consecutive
// ladder steps, skipping candidates that collide with a pending proposal
// (a ladder step equal to the sweep base — its parameter's grid includes
// the incumbent value — can repeat within a window) for at most
// proposeAttempts tries each, exactly the adapter's policy.
func (s *Grid) ProposeBatch(n int) []*configspace.Config {
	defer accrue(&s.cost)()
	out := make([]*configspace.Config, 0, n)
	for len(out) < n {
		c := s.step()
		for attempt := 1; attempt < proposeAttempts && s.pending[c.Hash()] > 0; attempt++ {
			c = s.step()
		}
		s.pending[c.Hash()]++
		out = append(out, c)
	}
	return out
}

// Observe implements Searcher, clearing the configuration from the
// pending set. Grid learns nothing from the measurement itself: without
// direction knowledge it cannot rank, so the engine feeds the best
// configuration back via AdoptBase.
func (s *Grid) Observe(o Observation) {
	if o.Config != nil {
		if h := o.Config.Hash(); s.pending[h] > 0 {
			s.pending[h]--
		}
	}
}

// AdoptBase re-centers the sweep on a new base configuration.
func (s *Grid) AdoptBase(c *configspace.Config) { s.base = c.Clone() }

// Pending returns the number of proposed-but-unobserved batch proposals
// (counting duplicates), mirroring the adapter's diagnostic.
func (s *Grid) Pending() int {
	total := 0
	for _, c := range s.pending {
		total += c
	}
	return total
}

// DecisionCost implements Searcher with batch semantics: the searcher
// time consumed since the previous call, drained on read — so a round's
// ProposeBatch cost is attributed once, to the round's first recorded
// iteration, exactly as the adapter attributes it for the other
// strategies.
func (s *Grid) DecisionCost() time.Duration {
	c := s.cost
	s.cost = 0
	return c
}

// Bayesian is the Bayesian-optimization baseline: a Gaussian-process
// surrogate updated on every observation (an O(n²) incremental Cholesky
// extension — see package gp), proposing the candidate with maximum
// Expected Improvement over a random pool. Crashed configurations are
// taught to the surrogate as worst-case outcomes (BO has no native crash
// model — the deficiency §2.3 calls out).
//
// Bayesian implements BatchSearcher natively: ProposeBatch scores one
// shared candidate pool and fills later slots via constant-liar
// fantasized observations (each pick is speculatively taught to the
// surrogate at the incumbent best value, pushed in O(n²) and popped for
// free), so within a round later slots condition on earlier picks instead
// of proposing near-duplicates. The pending bookkeeping matches the
// AsBatch adapter's policy, and ProposeBatch(1) on an empty pending set
// reproduces Propose byte-for-byte — what keeps one-worker parallel
// sessions identical to sequential ones.
type Bayesian struct {
	space    *configspace.Space
	enc      *configspace.Encoder
	model    *gp.GP
	rng      *rng.RNG
	maximize bool

	poolSize  int
	best      float64
	haveBest  bool
	worst     float64
	haveWorst bool
	cost      time.Duration
	fitErrors int
	pending   map[uint64]int

	// Reusable proposal scratch, allocated on the first scored proposal
	// and overwritten in place by every later one: the candidate pool
	// (Space.RandomInto), its encodings (Encoder.EncodeInto), the batched
	// EI output, and — for ProposeBatch only, the one reader — the pool's
	// hashes. A pool config handed to the caller leaves the pool (its slot
	// is set to nil) and the next draw refills that slot with a fresh
	// Config, so no config a caller holds is ever overwritten; a steady
	// sequential proposal allocates one Config, not one per candidate.
	pool       []*configspace.Config
	poolXs     [][]float64
	poolHashes []uint64
	poolEIs    []float64
}

// NewBayesian returns a Bayesian-optimization searcher.
func NewBayesian(space *configspace.Space, maximize bool, seed uint64) *Bayesian {
	return &Bayesian{
		space:    space,
		enc:      configspace.NewEncoder(space),
		model:    gp.New(0.35, 1.0, 1e-3),
		rng:      rng.New(seed),
		maximize: maximize,
		poolSize: 96,
		pending:  map[uint64]int{},
	}
}

// Name implements Searcher.
func (s *Bayesian) Name() string { return "bayesian" }

// SetSurrogateRefit forces the surrogate back to from-scratch O(n³)
// refactorization on every observation — the pre-incremental baseline the
// searcherscale experiment charts decision cost against.
func (s *Bayesian) SetSurrogateRefit(on bool) { s.model.SetForceRefit(on) }

// hyperAdaptEvery is the online hyperparameter-adaptation cadence a
// windowed Bayesian searcher runs at: every this-many observations the
// surrogate grid-probes the (lengthScale, signalVar) neighborhood by log
// marginal likelihood and adopts an improvement. Windowed models need it —
// with only a recent slice of history in view, the construction-time
// hyperparameters can drift arbitrarily far from what the window supports.
const hyperAdaptEvery = 32

// SetSurrogateWindow implements Windowed: the GP trains on (and downdates
// out of) a sliding window of the most recent n observations, and online
// hyperparameter adaptation is switched on alongside (off again at n=0).
func (s *Bayesian) SetSurrogateWindow(n int) error {
	if err := s.model.SetWindow(n); err != nil {
		return err
	}
	if n > 0 {
		s.model.SetHyperAdapt(hyperAdaptEvery)
	} else {
		s.model.SetHyperAdapt(0)
	}
	return nil
}

// FitErrors returns how many surrogate fit failures proposals have
// absorbed (each one falls back to the best candidate scored so far, or a
// random draw when the failure hits before any candidate was scored).
func (s *Bayesian) FitErrors() int { return s.fitErrors }

// signed maps a metric into maximize direction.
func (s *Bayesian) signed(y float64) float64 {
	if s.maximize {
		return y
	}
	return -y
}

// Propose implements Searcher.
func (s *Bayesian) Propose() *configspace.Config {
	defer accrue(&s.cost)()
	return s.proposeOne()
}

// drawPool refills the reusable proposal scratch with poolSize random
// candidates and their encodings — the same RNG draws and encode order
// the per-candidate loop consumed, just performed upfront so the pool
// can be scored with one kernel-matrix build and one triangular batch
// solve instead of poolSize scalar solves. Slots still holding a config
// are overwritten in place; slots emptied by handOut get a fresh one.
func (s *Bayesian) drawPool() {
	if s.pool == nil {
		s.pool = make([]*configspace.Config, s.poolSize)
		s.poolXs = make([][]float64, s.poolSize)
		s.poolEIs = make([]float64, s.poolSize)
		for i := range s.poolXs {
			s.poolXs[i] = make([]float64, s.enc.Dim())
		}
	}
	for i, c := range s.pool {
		if c == nil {
			c = s.space.Random(s.rng)
			s.pool[i] = c
		} else {
			s.space.RandomInto(s.rng, c)
		}
		s.enc.EncodeInto(c, s.poolXs[i])
	}
}

// handOut returns pool slot i's config to the caller and empties the
// slot, so the next drawPool cannot overwrite a config the caller holds.
func (s *Bayesian) handOut(i int) *configspace.Config {
	c := s.pool[i]
	s.pool[i] = nil
	return c
}

// proposeOne draws and scores one candidate pool — the single-proposal
// path Propose and the batch cold-start share. The whole pool is scored
// with one batched EI sweep (bit-identical to the scalar loop); on a
// surrogate fit failure the batch is all-or-nothing, so the fallback is
// the pool's first candidate — a random draw, exactly what the caller
// would get from an unscored pool — and the fit error is counted.
func (s *Bayesian) proposeOne() *configspace.Config {
	if s.model.Len() < 3 {
		return s.space.Random(s.rng)
	}
	s.drawPool()
	if err := s.model.ExpectedImprovementBatch(s.poolXs, s.best, 0.01, s.poolEIs); err != nil {
		s.fitErrors++
		return s.handOut(0)
	}
	bestEI, bestIdx := -1.0, 0
	for i, ei := range s.poolEIs {
		if ei > bestEI {
			bestEI, bestIdx = ei, i
		}
	}
	return s.handOut(bestIdx)
}

// ProposeBatch implements BatchSearcher natively. One shared pool of
// poolSize random candidates is drawn and encoded once; each slot scores
// the whole pool against the current surrogate — including the fantasized
// observations pushed for earlier slots (constant liar: each pick is
// speculatively taught at the incumbent best, so EI collapses around it
// and the next slot is steered elsewhere) — and picks the best-EI
// candidate not colliding with a pending proposal. All fantasy frames are
// popped before returning: the surrogate the next Observe updates is
// exactly the real-history one.
func (s *Bayesian) ProposeBatch(n int) []*configspace.Config {
	defer accrue(&s.cost)()
	out := make([]*configspace.Config, 0, n)
	if n == 1 {
		// A singleton batch is the adapter's propose-once path verbatim —
		// including the lazy pool draw, so even the fit-error early exit
		// consumes the RNG identically and the ProposeBatch(1) ≡ Propose
		// byte-equivalence holds on every code path.
		c := s.proposeOne()
		for attempt := 1; attempt < proposeAttempts && s.pending[c.Hash()] > 0; attempt++ {
			c = s.proposeOne()
		}
		s.pending[c.Hash()]++
		return append(out, c)
	}
	if s.model.Len() < 3 {
		// Cold start: each slot is a random draw, deduplicated against the
		// pending set for at most proposeAttempts tries — the adapter's
		// policy around the single-proposal cold path exactly.
		for len(out) < n {
			c := s.space.Random(s.rng)
			for attempt := 1; attempt < proposeAttempts && s.pending[c.Hash()] > 0; attempt++ {
				c = s.space.Random(s.rng)
			}
			s.pending[c.Hash()]++
			out = append(out, c)
		}
		return out
	}
	s.drawPool()
	if s.poolHashes == nil {
		s.poolHashes = make([]uint64, s.poolSize)
	}
	for i, c := range s.pool {
		s.poolHashes[i] = c.Hash()
	}
	defer s.model.PopAllFantasies()
	// Every emptied (handed-out) slot's hash is pending from here on, so
	// the pending checks below never reach a nil slot.
	for slot := 0; slot < n; slot++ {
		// One batched EI sweep per slot: the fantasy pushed for the
		// previous pick changes the surrogate, so each slot re-scores the
		// shared pool — still one solve per slot instead of poolSize.
		bestEI, bestIdx := -1.0, -1
		if err := s.model.ExpectedImprovementBatch(s.poolXs, s.best, 0.01, s.poolEIs); err != nil {
			// All-or-nothing batch failure: fall back to the first
			// non-pending pool candidate (a random draw) and count it.
			s.fitErrors++
			for i := range s.pool {
				if s.pending[s.poolHashes[i]] == 0 {
					bestIdx = i
					break
				}
			}
		} else {
			for i := range s.pool {
				if s.pending[s.poolHashes[i]] > 0 {
					continue
				}
				if s.poolEIs[i] > bestEI {
					bestEI, bestIdx = s.poolEIs[i], i
				}
			}
		}
		var c *configspace.Config
		var h uint64
		if bestIdx >= 0 {
			c, h = s.handOut(bestIdx), s.poolHashes[bestIdx]
			if slot < n-1 {
				// Constant liar: fantasize the pick at the incumbent best
				// (signed), so the next slot's EI avoids its neighborhood.
				// A push failure just skips the fantasy — the slot still
				// proposes, the pool is merely scored unconditioned.
				if err := s.model.PushFantasy(s.poolXs[bestIdx], s.best); err != nil {
					s.fitErrors++
				}
			}
		} else {
			// Every pool candidate is pending: fall back to fresh random
			// draws with the bounded dedup the adapter applies.
			c = s.space.Random(s.rng)
			for attempt := 1; attempt < proposeAttempts && s.pending[c.Hash()] > 0; attempt++ {
				c = s.space.Random(s.rng)
			}
			h = c.Hash()
		}
		s.pending[h]++
		out = append(out, c)
	}
	return out
}

// Pending returns the number of proposed-but-unobserved batch proposals
// (counting duplicates), mirroring the adapter's diagnostic.
func (s *Bayesian) Pending() int {
	total := 0
	for _, c := range s.pending {
		total += c
	}
	return total
}

// Observe implements Searcher, clearing the configuration from the
// pending set before teaching it to the surrogate.
func (s *Bayesian) Observe(o Observation) {
	defer accrue(&s.cost)()
	if o.Config != nil {
		if h := o.Config.Hash(); s.pending[h] > 0 {
			s.pending[h]--
		}
	}
	if o.Crashed {
		// Penalize with the worst observed value so far, in the signed
		// (maximize) direction — so on minimize objectives, where every
		// signed value is ≤ 0, a crash is never taught as an improvement.
		// Before the first successful observation there is no scale to
		// penalize against, so the crash is withheld from the surrogate
		// (Propose keeps sampling randomly until the model has points).
		if s.haveWorst {
			s.model.Add(o.X, s.worst)
		}
		return
	}
	y := s.signed(o.Metric)
	if !s.haveWorst || y < s.worst {
		s.worst, s.haveWorst = y, true
	}
	if !s.haveBest || y > s.best {
		s.best, s.haveBest = y, true
	}
	s.model.Add(o.X, y)
}

// DecisionCost implements Searcher with batch semantics: the searcher
// time consumed since the previous call, drained on read (Grid's
// convention) — sequentially the engine reads once per iteration, so the
// value is the iteration's Propose+Observe cost exactly as before; across
// a batch the round's proposal cost lands on the round's first recorded
// iteration, matching the adapter's attribution.
func (s *Bayesian) DecisionCost() time.Duration {
	c := s.cost
	s.cost = 0
	return c
}

// DeepTune adapts the deeptune.Selector to the Searcher interface,
// carrying the full history the DTM retrains on.
//
// DeepTune implements BatchSearcher natively: ProposeBatch ranks one
// shared candidate pool — one DTM forward pass per candidate, not per
// slot — and fills later slots under a diversity penalty (each pick joins
// the dissimilarity term's explored set), replacing the batchAdapter path
// for parallel/async sessions. ProposeBatch(1) on an empty pending set
// reproduces Propose byte-for-byte.
type DeepTune struct {
	sel *deeptune.Selector

	xs      [][]float64
	ys      []float64
	crashes []bool
	// obs is the replayable observation history (configs in canonical KV
	// form) the Checkpointable implementation serializes; the DTM's state
	// is a pure function of it, so a checkpoint need not version network
	// weights or optimizer buffers.
	obs          []deepTuneObs
	unreplayable bool // an observation carried no Config; checkpointing is off
	cost         time.Duration
	pending      map[uint64]int
	// window bounds the training history handed to the DTM (0 = full
	// history). The obs replay log stays complete regardless: a restore
	// replays every observation through the same trimming, reproducing the
	// windowed Update sequence exactly.
	window int
}

// NewDeepTune returns a DeepTune searcher.
func NewDeepTune(space *configspace.Space, maximize bool, cfg deeptune.Config) *DeepTune {
	return &DeepTune{sel: deeptune.NewSelector(space, maximize, cfg), pending: map[uint64]int{}}
}

// Name implements Searcher.
func (s *DeepTune) Name() string { return "deeptune" }

// Selector exposes the underlying selector (for transfer learning).
func (s *DeepTune) Selector() *deeptune.Selector { return s.sel }

// SetSurrogateWindow implements Windowed: the DTM retrains on (and the
// selector's dissimilarity term remembers) only the most recent n
// observations, bounding the per-iteration retrain cost that otherwise
// grows with the session.
func (s *DeepTune) SetSurrogateWindow(n int) error {
	if err := s.sel.SetWindow(n); err != nil {
		return err
	}
	s.window = n
	return nil
}

// Propose implements Searcher.
func (s *DeepTune) Propose() *configspace.Config {
	defer accrue(&s.cost)()
	return s.sel.Propose()
}

// ProposeBatch implements BatchSearcher natively (see the type comment),
// skipping candidates that collide with a pending proposal on a
// best-effort basis — the adapter's dedup policy.
func (s *DeepTune) ProposeBatch(n int) []*configspace.Config {
	defer accrue(&s.cost)()
	out := s.sel.ProposeBatch(n, func(c *configspace.Config) bool {
		return s.pending[c.Hash()] > 0
	})
	for _, c := range out {
		s.pending[c.Hash()]++
	}
	return out
}

// Pending returns the number of proposed-but-unobserved batch proposals
// (counting duplicates), mirroring the adapter's diagnostic.
func (s *DeepTune) Pending() int {
	total := 0
	for _, c := range s.pending {
		total += c
	}
	return total
}

// Observe implements Searcher, clearing the configuration from the
// pending set before retraining the DTM.
func (s *DeepTune) Observe(o Observation) {
	defer accrue(&s.cost)()
	if o.Config != nil {
		if h := o.Config.Hash(); s.pending[h] > 0 {
			s.pending[h]--
		}
	}
	s.xs = append(s.xs, o.X)
	s.ys = append(s.ys, o.Metric)
	s.crashes = append(s.crashes, o.Crashed)
	if s.window > 0 && len(s.xs) > s.window {
		// Slide the training window: copy-shift in place so the backing
		// arrays stop growing with the session. The obs replay log below
		// stays complete — it is the checkpoint recipe, not training state.
		drop := len(s.xs) - s.window
		s.xs = shiftTail(s.xs, drop)
		s.ys = shiftTail(s.ys, drop)
		s.crashes = shiftTail(s.crashes, drop)
	}
	if o.Config != nil {
		s.obs = append(s.obs, deepTuneObs{KV: o.Config.KV(), Metric: o.Metric, Crashed: o.Crashed, Stage: o.Stage})
	} else {
		s.unreplayable = true
	}
	// Selector.Observe never fails with aligned histories, which this
	// adapter maintains by construction.
	_ = s.sel.Observe(o.Config, o.X, o.Metric, o.Crashed, s.xs, s.ys, s.crashes)
}

// DecisionCost implements Searcher with batch semantics: the searcher
// time consumed since the previous call, drained on read (Grid's
// convention; see Bayesian.DecisionCost).
func (s *DeepTune) DecisionCost() time.Duration {
	c := s.cost
	s.cost = 0
	return c
}

// shiftTail drops the first drop elements of s in place — copy-shift, zero
// the vacated tail (releasing pointed-to memory), reslice — so a sliding
// window reuses its backing array instead of leaking it one append at a
// time.
func shiftTail[T any](s []T, drop int) []T {
	var zero T
	n := copy(s, s[drop:])
	for i := n; i < len(s); i++ {
		s[i] = zero
	}
	return s[:n]
}

// Unicorn adapts the causal-inference optimizer to the Searcher interface
// (Fig 7's comparator). Every Observe refits the causal graph from
// scratch — the scaling behaviour the figure measures.
type Unicorn struct {
	space    *configspace.Space
	enc      *configspace.Encoder
	opt      *causal.Optimizer
	rng      *rng.RNG
	maximize bool
	poolSize int
	cost     time.Duration
}

// NewUnicorn returns a causal-inference searcher.
func NewUnicorn(space *configspace.Space, maximize bool, seed uint64) *Unicorn {
	enc := configspace.NewEncoder(space)
	return &Unicorn{
		space:    space,
		enc:      enc,
		opt:      causal.New(enc.Dim(), maximize),
		rng:      rng.New(seed),
		maximize: maximize,
		poolSize: 64,
	}
}

// Name implements Searcher.
func (s *Unicorn) Name() string { return "unicorn" }

// Propose implements Searcher.
func (s *Unicorn) Propose() *configspace.Config {
	defer restart(&s.cost)()
	if s.opt.Len() < 5 {
		return s.space.Random(s.rng)
	}
	pool := make([]*configspace.Config, s.poolSize)
	feats := make([][]float64, s.poolSize)
	for i := range pool {
		pool[i] = s.space.Random(s.rng)
		feats[i] = s.enc.Encode(pool[i])
	}
	return pool[s.opt.SelectNext(feats)]
}

// Observe implements Searcher.
func (s *Unicorn) Observe(o Observation) {
	defer accrue(&s.cost)()
	y := o.Metric
	if o.Crashed {
		y = 0
		if !s.maximize {
			y = 1e12
		}
	}
	s.opt.Observe(o.X, y)
	s.opt.Fit()
}

// Optimizer exposes the causal optimizer (for Fig 7 cost accounting).
func (s *Unicorn) Optimizer() *causal.Optimizer { return s.opt }

// DecisionCost implements Searcher.
func (s *Unicorn) DecisionCost() time.Duration { return s.cost }

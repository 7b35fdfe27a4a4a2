package search

import (
	"math"
	"testing"

	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/gp"
	"wayfinder/internal/rng"
)

// syntheticMetric derives a deterministic metric from a configuration, so
// two searchers driven through identical schedules observe identical
// values without a simulator in the loop.
func syntheticMetric(c *configspace.Config) (float64, bool) {
	h := c.Hash()
	return float64(h%1000) / 10, h%13 == 0
}

// driveSingletonRounds runs native and adapter paths through an identical
// propose(1)/observe schedule and asserts byte-identical proposals — the
// batch=1 determinism contract for the learned searchers.
func driveSingletonRounds(t *testing.T, native, adapter BatchSearcher, space *configspace.Space, rounds int) {
	t.Helper()
	enc := configspace.NewEncoder(space)
	for round := 0; round < rounds; round++ {
		a := native.ProposeBatch(1)
		b := adapter.ProposeBatch(1)
		if len(a) != 1 || len(b) != 1 {
			t.Fatalf("round %d: batch sizes %d/%d, want 1", round, len(a), len(b))
		}
		if !a[0].Equal(b[0]) {
			t.Fatalf("round %d: native proposed %q, adapter %q", round, a[0].String(), b[0].String())
		}
		metric, crashed := syntheticMetric(a[0])
		for _, s := range []BatchSearcher{native, adapter} {
			c := a[0]
			if s == adapter {
				c = b[0]
			}
			s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: metric, Crashed: crashed, Stage: "ok"})
		}
	}
}

// TestBayesianNativeBatchSingleMatchesAdapter pins the contract that made
// the native path safe to enable: ProposeBatch(1) through the native
// constant-liar implementation proposes exactly what the single-proposal
// path wrapped in the AsBatch adapter would, on a fixed seed, across the
// cold-start and surrogate-driven phases.
func TestBayesianNativeBatchSingleMatchesAdapter(t *testing.T) {
	space := batchSpace(t)
	native := NewBayesian(space, true, 77)
	wrapped := NewBayesian(space, true, 77)
	adapter := AsBatch(&plainSearcher{Searcher: wrapped})
	if _, isAdapter := adapter.(*batchAdapter); !isAdapter {
		t.Fatal("shim failed to force the adapter path")
	}
	if AsBatch(native) != BatchSearcher(native) {
		t.Fatal("Bayesian should be used natively by AsBatch")
	}
	driveSingletonRounds(t, native, adapter, space, 24)
	if native.model.Len() < 3 {
		t.Fatalf("surrogate saw only %d observations — the warm phase was never exercised", native.model.Len())
	}
}

// TestDeepTuneNativeBatchSingleMatchesAdapter is the same contract for the
// diversity-penalized DeepTune path.
func TestDeepTuneNativeBatchSingleMatchesAdapter(t *testing.T) {
	space := toySpace()
	cfg := deeptune.DefaultConfig()
	cfg.Hidden1, cfg.Hidden2, cfg.Centroids = 12, 8, 6
	cfg.Epochs, cfg.PoolSize, cfg.BatchSize = 1, 16, 8
	cfg.Seed = 9
	native := NewDeepTune(space, true, cfg)
	wrapped := NewDeepTune(space, true, cfg)
	adapter := AsBatch(&plainSearcher{Searcher: wrapped})
	if AsBatch(native) != BatchSearcher(native) {
		t.Fatal("DeepTune should be used natively by AsBatch")
	}
	driveSingletonRounds(t, native, adapter, space, 12)
	if native.sel.Model().Trained() == 0 {
		t.Fatal("the DTM never trained — the ranked phase was never exercised")
	}
}

// TestBayesianBatchFantasiesArePopped pins the fantasy-frame hygiene: a
// multi-slot batch conditions later slots on constant-liar fantasies, but
// the surrogate the next Observe trains is exactly the real-history one.
func TestBayesianBatchFantasiesArePopped(t *testing.T) {
	space := batchSpace(t)
	s := NewBayesian(space, true, 5)
	enc := configspace.NewEncoder(space)
	r := 0
	for s.model.Len() < 8 {
		c := s.space.Random(s.rng)
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: float64(10 + r)})
		r++
	}
	before := s.model.Len()
	batch := s.ProposeBatch(6)
	if len(batch) != 6 {
		t.Fatalf("batch of %d, want 6", len(batch))
	}
	if s.model.Len() != before || s.model.Fantasies() != 0 {
		t.Fatalf("fantasies leaked: Len %d->%d, active %d", before, s.model.Len(), s.model.Fantasies())
	}
	if s.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", s.Pending())
	}
	seen := map[uint64]int{}
	for i, c := range batch {
		if prev, dup := seen[c.Hash()]; dup {
			t.Fatalf("slots %d and %d propose the same configuration", prev, i)
		}
		seen[c.Hash()] = i
	}
	for _, c := range batch {
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: 1, Stage: "ok"})
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after observing everything, want 0", s.Pending())
	}
}

// TestBayesianBatchDiversifiesSlots verifies the constant liar does its
// job: with a warm surrogate, a batch's slots must not all collapse onto
// near-identical feature vectors. We compare the batch's minimum pairwise
// feature distance against zero — fantasization must separate the picks.
func TestBayesianBatchDiversifiesSlots(t *testing.T) {
	space := batchSpace(t)
	s := NewBayesian(space, true, 6)
	enc := configspace.NewEncoder(space)
	for i := 0; i < 12; i++ {
		c := s.space.Random(s.rng)
		m, crashed := syntheticMetric(c)
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: m, Crashed: crashed})
	}
	batch := s.ProposeBatch(4)
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			if batch[i].Equal(batch[j]) {
				t.Fatalf("slots %d and %d are identical configurations", i, j)
			}
		}
	}
}

// TestBayesianProposeSurvivesFitError pins the satellite fix: when the
// surrogate cannot factorize, Propose must still return a configuration
// and the failure must be countable, not silent.
func TestBayesianProposeSurvivesFitError(t *testing.T) {
	space := toySpace()
	s := NewBayesian(space, true, 8)
	// A negative signal variance makes the kernel matrix indefinite, so
	// every factorization — jitter included — fails.
	s.model = gp.New(0.35, -1, -1)
	enc := configspace.NewEncoder(space)
	for i := 0; i < 4; i++ {
		c := space.Random(s.rng)
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: float64(i + 1)})
	}
	if s.FitErrors() != 0 {
		t.Fatalf("fit errors before proposing: %d", s.FitErrors())
	}
	c := s.Propose()
	if c == nil {
		t.Fatal("Propose returned nil under a broken surrogate")
	}
	if s.FitErrors() == 0 {
		t.Fatal("surrogate fit failure was not surfaced on the counter")
	}
	// The batch path counts too, and still fills every slot.
	batch := s.ProposeBatch(3)
	if len(batch) != 3 {
		t.Fatalf("batch of %d under a broken surrogate, want 3", len(batch))
	}
	for _, bc := range batch {
		if bc == nil {
			t.Fatal("nil config in batch under a broken surrogate")
		}
	}
}

// TestBayesianPoolNeverMutatesHandedOutConfigs: the candidate pool is
// overwritten in place by every proposal, so a config handed to a caller
// must have left the pool for good. Every config returned by Propose,
// ProposeBatch(1) and ProposeBatch(8) — on the cold start, the warm
// surrogate and the fit-error fallback — is recorded by String and Hash
// when returned, and must read the same after 64 more proposals and a
// checkpoint/restore. No config may be returned twice.
func TestBayesianPoolNeverMutatesHandedOutConfigs(t *testing.T) {
	space := batchSpace(t)
	s := NewBayesian(space, true, 5)
	enc := configspace.NewEncoder(space)
	type handed struct {
		c    *configspace.Config
		str  string
		hash uint64
	}
	var got []handed
	seen := map[*configspace.Config]bool{}
	take := func(cs ...*configspace.Config) {
		for _, c := range cs {
			if seen[c] {
				t.Fatalf("config %p handed out twice", c)
			}
			seen[c] = true
			got = append(got, handed{c, c.String(), c.Hash()})
			metric, crashed := syntheticMetric(c)
			s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: metric, Crashed: crashed, Stage: "ok"})
		}
	}
	// Cold start: fewer than three observations in the surrogate.
	take(s.Propose())
	take(s.ProposeBatch(8)...)
	// Warm surrogate.
	for i := 0; i < 4; i++ {
		take(s.Propose())
		take(s.ProposeBatch(1)...)
		take(s.ProposeBatch(8)...)
	}
	// Fit-error fallback: a negative signal variance makes every
	// factorization fail, so proposals return unscored pool slots.
	healthy := s.model
	s.model = gp.New(0.35, -1, -1)
	for _, h := range got[len(got)-4:] {
		s.model.Add(enc.Encode(h.c), 1)
	}
	take(s.Propose())
	take(s.ProposeBatch(1)...)
	take(s.ProposeBatch(8)...)
	if s.FitErrors() == 0 {
		t.Fatal("the broken surrogate never reached the fit-error fallback")
	}
	s.model = healthy
	for i := 0; i < 8; i++ { // 64 more proposals
		take(s.Propose())
		take(s.ProposeBatch(7)...)
	}
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewBayesian(space, true, 5)
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	restored.ProposeBatch(8)
	take(s.Propose())
	for i, h := range got {
		if h.c.String() != h.str || h.c.Hash() != h.hash {
			t.Fatalf("config %d changed after it was handed out: %q (%x) is now %q (%x)",
				i, h.str, h.hash, h.c.String(), h.c.Hash())
		}
	}
}

// TestBayesianProposeAllocs pins the steady-state allocations of a warm
// sequential Propose: the pool is reused, so one proposal allocates the
// fresh Config that replaces the handed-out one (the config and its value
// slice) — not one per candidate, as a per-pool draw would.
func TestBayesianProposeAllocs(t *testing.T) {
	space := batchSpace(t)
	s := NewBayesian(space, true, 5)
	enc := configspace.NewEncoder(space)
	r := rng.New(6)
	for i := 0; i < 32; i++ {
		c := space.Random(r)
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: r.Float64(), Stage: "ok"})
	}
	s.Propose() // the first scored proposal allocates the pool
	const want = 2
	if allocs := testing.AllocsPerRun(20, func() { s.Propose() }); allocs > want {
		t.Fatalf("warm sequential Propose allocates %.1f objects/op, want at most %d", allocs, want)
	}
}

// TestDeepTuneBatchDiversityPenalty checks the shared-pool ranking: a
// trained DeepTune batch must fill slots with distinct configurations
// (the diversity penalty pushes later slots off the winner), and the
// pending set must block cross-batch repeats on a best-effort basis.
func TestDeepTuneBatchDiversityPenalty(t *testing.T) {
	space := toySpace()
	cfg := deeptune.DefaultConfig()
	cfg.Hidden1, cfg.Hidden2, cfg.Centroids = 12, 8, 6
	cfg.Epochs, cfg.PoolSize, cfg.BatchSize = 1, 24, 8
	cfg.Seed = 3
	s := NewDeepTune(space, true, cfg)
	enc := configspace.NewEncoder(space)
	r := rng.New(17)
	for i := 0; i < 6; i++ {
		c := space.Random(r)
		m, crashed := syntheticMetric(c)
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: m, Crashed: crashed, Stage: "ok"})
	}
	batch := s.ProposeBatch(5)
	if len(batch) != 5 {
		t.Fatalf("batch of %d, want 5", len(batch))
	}
	seen := map[uint64]int{}
	for i, c := range batch {
		if prev, dup := seen[c.Hash()]; dup {
			t.Fatalf("slots %d and %d propose the same configuration", prev, i)
		}
		seen[c.Hash()] = i
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	for _, c := range batch {
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: 1, Stage: "ok"})
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after observing everything, want 0", s.Pending())
	}
}

// TestSelectorPoolDiversityFold cross-checks the incremental diversity
// fold against the definition: folding a pick into the dissimilarity term
// must equal recomputing Dissimilarity against explored ∪ picks.
func TestSelectorPoolDiversityFold(t *testing.T) {
	explored := [][]float64{{0, 0, 0}, {1, 1, 1}}
	picks := [][]float64{{0.5, 0.5, 0.5}, {0.2, 0.9, 0.1}}
	cands := [][]float64{{0.4, 0.5, 0.6}, {2, 2, 2}, {0.2, 0.9, 0.1}}
	for _, x := range cands {
		folded := deeptune.Dissimilarity(x, explored)
		for _, p := range picks {
			if d := deeptune.Dissimilarity(x, [][]float64{p}); d < folded {
				folded = d
			}
		}
		want := deeptune.Dissimilarity(x, append(append([][]float64{}, explored...), picks...))
		if math.Abs(folded-want) > 1e-15 {
			t.Fatalf("folded ds %v != union ds %v for %v", folded, want, x)
		}
	}
}

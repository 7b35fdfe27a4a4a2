package search

import (
	"reflect"
	"testing"

	"wayfinder/internal/snapcover"
)

// The searcher ↔ checkpoint-state pairs, pinned so a new piece of
// dynamic searcher state cannot silently stay out of its checkpoint.
// Constructor arguments (the space, direction, hyperparameters, seeds)
// are deliberately not checkpointed: a restore target is built fresh
// with the same arguments and Restore overlays the accumulated state.

func TestRandomStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Random](), reflect.TypeFor[randomState](), snapcover.Spec{
		Covered: map[string]string{
			"rng":  "RNG",
			"seen": "Seen",
		},
		Excluded: map[string]string{
			"space": "construction-time: the restore target is built over the same space",
			"cost":  "per-call decision stopwatch, reported not replayed; the next Propose rewrites it",
		},
	})
}

func TestRandomMutateStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[RandomMutate](), reflect.TypeFor[randomState](), snapcover.Spec{
		Covered: map[string]string{
			"rng":  "RNG",
			"seen": "Seen",
		},
		Excluded: map[string]string{
			"space": "construction-time: the restore target is built over the same space",
			"k":     "construction-time mutation width",
			"cost":  "per-call decision stopwatch, reported not replayed; the next Propose rewrites it",
		},
	})
}

func TestGridStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Grid](), reflect.TypeFor[gridState](), snapcover.Spec{
		Covered: map[string]string{
			"base":     "BaseKV",
			"paramIdx": "ParamIdx",
			"valueIdx": "ValueIdx",
			"pending":  "Pending",
		},
		Excluded: map[string]string{
			"space": "construction-time: the restore target is built over the same space",
			"cost":  "accumulating decision stopwatch, reported not replayed",
		},
	})
}

func TestBayesianStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Bayesian](), reflect.TypeFor[bayesianState](), snapcover.Spec{
		Covered: map[string]string{
			"rng":       "RNG",
			"best":      "Best",
			"haveBest":  "HaveBest",
			"worst":     "Worst",
			"haveWorst": "HaveWorst",
			"fitErrors": "FitErrors",
			"pending":   "Pending",
			"model":     "GP",
		},
		Excluded: map[string]string{
			"space":    "construction-time: the restore target is built over the same space",
			"enc":      "derived from the space at construction",
			"maximize": "construction-time optimization direction",
			"poolSize": "construction-time candidate-pool size",
			"cost":     "accumulating decision stopwatch, reported not replayed",
			// The surrogate's window/adaptation knobs live inside gp.State;
			// the proposal scratch is redrawn from the RNG every proposal.
			"pool":       "reusable proposal scratch, redrawn every proposal",
			"poolXs":     "reusable proposal scratch, redrawn every proposal",
			"poolHashes": "reusable proposal scratch, recomputed by every ProposeBatch",
			"poolEIs":    "reusable proposal scratch, redrawn every proposal",
		},
	})
}

func TestDeepTuneStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[DeepTune](), reflect.TypeFor[deepTuneState](), snapcover.Spec{
		Covered: map[string]string{
			"obs":     "Obs",
			"pending": "Pending",
			// The selector's proposal-stream RNG position serializes; its
			// DTM weights, optimizer moments, and training RNGs are a pure
			// function of the replayed Obs sequence.
			"sel": "RNG",
			// Rebuilt by the Observe replay during Restore, alongside the
			// selector's training state.
			"xs":      "Obs",
			"ys":      "Obs",
			"crashes": "Obs",
		},
		Excluded: map[string]string{
			"unreplayable": "checkpoint-eligibility flag: true makes Checkpoint fail, so a written checkpoint implies false",
			"cost":         "accumulating decision stopwatch, reported not replayed; Restore resets it",
			"window":       "session-level knob: reapplied by the session (SetSurrogateWindow from Options) before Restore replays the history",
		},
	})
}

// TestDeepTuneObsCoverage pins the per-observation replay record against
// the live Observation it is derived from.
func TestDeepTuneObsCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Observation](), reflect.TypeFor[deepTuneObs](), snapcover.Spec{
		Covered: map[string]string{
			"Config":  "KV",
			"Metric":  "Metric",
			"Crashed": "Crashed",
			"Stage":   "Stage",
		},
		Excluded: map[string]string{
			"X": "re-encoded from the Config by the restore replay",
		},
	})
}

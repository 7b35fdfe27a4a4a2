package deeptune

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"wayfinder/internal/rng"
)

// updateDTMDigests rewrites testdata/dtm_digests.json from the current
// model instead of checking against it.
var updateDTMDigests = flag.Bool("update-dtm-digests", false,
	"rewrite testdata/dtm_digests.json from the current model")

const dtmDigestPath = "testdata/dtm_digests.json"

// dtmDigestUpdates are the history lengths at which each cell's model
// retrains, along a 37-observation stream: most are not a multiple of the
// 4-sample kernel block or of the minibatch size, and the last three pass
// the 24-observation window.
var dtmDigestUpdates = map[int]bool{1: true, 2: true, 3: true, 5: true, 6: true, 7: true,
	9: true, 13: true, 17: true, 23: true, 29: true, 37: true}

// dtmDigestRow pins the complete training result of one cell: every
// weight tensor, both Adam optimizers' moments, the target and feature
// normalization with the shuffle stream's position, and the batched
// predictions and dissimilarities over a fixed candidate set.
type dtmDigestRow struct {
	Name    string `json:"name"`
	Weights string `json:"weights"`
	Moments string `json:"moments"`
	Stats   string `json:"stats"`
	Predict string `json:"predict"`
}

// floatDigest hashes float64 values by their exact bits.
type floatDigest struct{ buf []byte }

func (f *floatDigest) add(vs ...float64) {
	for _, v := range vs {
		f.buf = binary.LittleEndian.AppendUint64(f.buf, math.Float64bits(v))
	}
}

func (f *floatDigest) sum() string {
	h := sha256.Sum256(f.buf)
	return hex.EncodeToString(h[:])
}

// dtmDigestCell trains a model over one cell's observation stream and
// digests the result. crash is "none", "mixed" or "all"; window > 0
// trains on only the most recent window observations, as the windowed
// DeepTune searcher does.
func dtmDigestCell(t *testing.T, dim, batch int, crash string, window int) dtmDigestRow {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BatchSize = batch
	cfg.Seed = 7
	cfg.Epochs = 3
	d := New(dim, cfg)
	r := rng.New(uint64(1000*dim + batch))
	// vec mixes the encoder's feature kinds: one-hot-like {0,1} columns
	// among continuous ones.
	vec := func(scale float64) []float64 {
		x := make([]float64, dim)
		for k := range x {
			if k%3 == 1 {
				if r.Bool() {
					x[k] = 1
				}
			} else {
				x[k] = scale * r.Float64()
			}
		}
		return x
	}
	var xs [][]float64
	var ys []float64
	var crashed []bool
	for n := 1; n <= 37; n++ {
		x := vec(1)
		cr := crash == "all" || (crash == "mixed" && x[2] > 0.6)
		xs = append(xs, x)
		ys = append(ys, 50+30*x[0]-20*x[1]+r.Normal(0, 1))
		crashed = append(crashed, cr)
		if window > 0 && len(xs) > window {
			xs, ys, crashed = xs[1:], ys[1:], crashed[1:]
		}
		if !dtmDigestUpdates[n] {
			continue
		}
		if err := d.Update(xs, ys, crashed); err != nil {
			t.Fatal(err)
		}
	}

	var w, m, st, pr floatDigest
	_, params := d.named()
	for k, p := range params {
		w.add(p.W...)
		opt := d.opt
		if k >= 8 { // the two RBF banks train under their own optimizer
			opt = d.rbfOpt
		}
		mom, vel := opt.Moments(p)
		m.add(mom...)
		m.add(vel...)
	}
	st.add(float64(d.yStats.N()), d.yStats.Mean(), d.yStats.Variance())
	mean, std := d.zscorer.Stats()
	st.add(mean...)
	st.add(std...)
	for _, s := range d.rng.State() {
		st.add(float64(s))
	}
	// 11 candidates: a batch tail past the 4-sample blocks, and out-of-
	// distribution points besides in-distribution ones.
	cands := make([][]float64, 11)
	for j := range cands {
		cands[j] = vec(1 + float64(j%3))
	}
	preds := make([]Prediction, len(cands))
	d.PredictBatch(cands, preds)
	for j, p := range preds {
		pr.add(p.CrashProb, p.Perf, p.Sigma, p.Uncertainty, Dissimilarity(cands[j], xs))
	}
	return dtmDigestRow{
		Name:    fmt.Sprintf("dim%d-bs%d-%s-w%d", dim, batch, crash, window),
		Weights: w.sum(), Moments: m.sum(), Stats: st.sum(), Predict: pr.sum(),
	}
}

// TestDTMDigestTable pins the DTM's training and scoring bit for bit over
// dim {6, 64, 397} × BatchSize {1, 5, 16, 17} × crash mix × window: any
// change to the order of a floating-point operation in Update,
// PredictBatch or Dissimilarity shows as a changed row. Run with
// -update-dtm-digests to rewrite the table after an intended change.
func TestDTMDigestTable(t *testing.T) {
	var rows []dtmDigestRow
	for _, dim := range []int{6, 64, 397} {
		for _, batch := range []int{1, 5, 16, 17} {
			for _, crash := range []string{"none", "mixed", "all"} {
				for _, window := range []int{0, 24} {
					rows = append(rows, dtmDigestCell(t, dim, batch, crash, window))
				}
			}
		}
	}
	if *updateDTMDigests {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(dtmDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dtmDigestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), dtmDigestPath)
		return
	}
	data, err := os.ReadFile(dtmDigestPath)
	if err != nil {
		t.Fatalf("read %s: %v (run with -update-dtm-digests to create it)", dtmDigestPath, err)
	}
	var pinned []dtmDigestRow
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(rows) {
		t.Fatalf("table has %d rows, run produced %d", len(pinned), len(rows))
	}
	for i, got := range rows {
		if got != pinned[i] {
			t.Errorf("cell %s: got %+v, pinned %+v", got.Name, got, pinned[i])
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// compileTestDataset builds a random correlated dataset whose schema
// includes unknown-guard attributes, so scoring exercises the
// missing-feature skip and debias paths.
func compileTestDataset(rng *rand.Rand, rows int) *ml.Dataset {
	nAttrs := 6 + rng.Intn(4)
	attrs := make([]ml.Attr, nAttrs)
	for j := range attrs {
		card := 2 + rng.Intn(5)
		attrs[j] = ml.Attr{
			Name:       fmt.Sprintf("f%d", j),
			Card:       card,
			HasUnknown: card > 2 && rng.Intn(3) == 0,
		}
	}
	ds := ml.NewDataset(attrs)
	row := make([]int, nAttrs)
	for i := 0; i < rows; i++ {
		latent := rng.Intn(5)
		for j, at := range attrs {
			v := latent % at.Card
			if rng.Float64() < 0.3 {
				v = rng.Intn(at.Card) // includes the guard bucket when present
			}
			row[j] = v
		}
		if err := ds.Add(row); err != nil {
			t := fmt.Sprintf("bad row: %v", err)
			panic(t)
		}
	}
	return ds
}

// referenceScores is the retained pointer-walking path, record by record.
func referenceScores(a *Analyzer, xs [][]int, s Scorer) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if s == MatchCount {
			out[i] = a.AvgMatchCount(x)
		} else {
			out[i] = a.AvgProbability(x)
		}
	}
	return out
}

// TestScoreKernelDifferential trains bundles with every base learner and
// pins the compiled scoring paths — per-event Score after Compile,
// ScoreEvents, and the columnar ScoreAll — bit-identical to the
// pointer-walking reference over >1000 random records per learner,
// including guard-bucket, short, and out-of-range rows. One Naive Bayes
// bundle has ablated (nil) sub-models, so its fused ensemble runs with
// empty slots.
func TestScoreKernelDifferential(t *testing.T) {
	cases := []struct {
		learner ml.Learner
		masked  bool
	}{
		{c45.NewLearner(), false},
		{&c45.Learner{MinLeaf: 2, Prune: true, CF: 0.25, HoldoutFrac: 1.0 / 3.0}, false},
		{ripper.NewLearner(), false},
		{nbayes.NewLearner(), false},
		{nbayes.NewLearner(), true},
	}
	for li, tc := range cases {
		learner := tc.learner
		rng := rand.New(rand.NewSource(int64(100 + li)))
		train := compileTestDataset(rng, 300)
		a, err := Train(train, learner, TrainOptions{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: train: %v", learner.Name(), err)
		}
		if tc.masked {
			for i := 0; i < len(a.Models); i += 3 {
				a.Models[i] = nil
			}
		}

		// Valid probe rows under the training schema (guard buckets
		// included), as both a Dataset and raw rows.
		probeDS := ml.NewDataset(train.Attrs)
		row := make([]int, len(train.Attrs))
		for i := 0; i < 600; i++ {
			for j, at := range train.Attrs {
				row[j] = rng.Intn(at.Card)
			}
			if err := probeDS.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		// Degraded probes: short rows, negative and out-of-range values.
		degraded := make([][]int, 0, 600)
		for i := 0; i < 600; i++ {
			x := make([]int, len(train.Attrs))
			for j, at := range train.Attrs {
				x[j] = rng.Intn(at.Card+2) - 1
			}
			if i%5 == 0 {
				x = x[:rng.Intn(len(x)+1)]
			}
			degraded = append(degraded, x)
		}

		for _, s := range []Scorer{MatchCount, Probability} {
			wantValid := referenceScores(a, probeDS.X, s)
			wantDegraded := referenceScores(a, degraded, s)

			a.Compile()
			gotAll := a.ScoreAll(probeDS, s)
			gotEvents := a.ScoreEvents(degraded, s)
			for i := range wantValid {
				if gotAll[i] != wantValid[i] {
					t.Fatalf("%s/%v: ScoreAll row %d = %v, reference %v",
						learner.Name(), s, i, gotAll[i], wantValid[i])
				}
				if got := a.Score(probeDS.X[i], s); got != wantValid[i] {
					t.Fatalf("%s/%v: compiled Score row %d = %v, reference %v",
						learner.Name(), s, i, got, wantValid[i])
				}
			}
			for i := range wantDegraded {
				if gotEvents[i] != wantDegraded[i] {
					t.Fatalf("%s/%v: ScoreEvents row %d (%v) = %v, reference %v",
						learner.Name(), s, i, degraded[i], gotEvents[i], wantDegraded[i])
				}
				if got := a.Score(degraded[i], s); got != wantDegraded[i] {
					t.Fatalf("%s/%v: compiled Score degraded row %d (%v) = %v, reference %v",
						learner.Name(), s, i, degraded[i], got, wantDegraded[i])
				}
			}
		}
		if _, isNB := learner.(*nbayes.Learner); isNB && a.comp.Load().nb == nil {
			t.Fatalf("%s (masked=%v): no fused ensemble was compiled", learner.Name(), tc.masked)
		}
	}
}

// referenceNormalLevels is the pointer-walking measurement of every
// sub-model's in-sample match rate and true-value probability.
func referenceNormalLevels(a *Analyzer, ds *ml.Dataset) (match, prob []float64) {
	match = make([]float64, len(a.Models))
	prob = make([]float64, len(a.Models))
	n := float64(ds.Len())
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		var mc, pc float64
		for _, x := range ds.X {
			p := m.PredictProba(x)
			if ml.ArgMax(p) == x[i] {
				mc++
			}
			if v := x[i]; v >= 0 && v < len(p) {
				pc += p[v]
			}
		}
		match[i], prob[i] = mc/n, pc/n
	}
	return match, prob
}

// TestNormalLevelsMatchReference pins the compiled-kernel measurement of
// NormalMatch/NormalProb in Train equal to the pointer-walking reference
// for every base learner, and checks that Train leaves no compiled
// generation behind (an analyzer never compiled scores on its reference
// path).
func TestNormalLevelsMatchReference(t *testing.T) {
	learners := []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()}
	for li, learner := range learners {
		train := compileTestDataset(rand.New(rand.NewSource(int64(300+li))), 300)
		a, err := Train(train, learner, TrainOptions{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: train: %v", learner.Name(), err)
		}
		if a.comp.Load() != nil {
			t.Fatalf("%s: Train stored a compiled generation", learner.Name())
		}
		match, prob := referenceNormalLevels(a, train)
		if !reflect.DeepEqual(a.NormalMatch, match) {
			t.Errorf("%s: NormalMatch %v, reference %v", learner.Name(), a.NormalMatch, match)
		}
		if !reflect.DeepEqual(a.NormalProb, prob) {
			t.Errorf("%s: NormalProb %v, reference %v", learner.Name(), a.NormalProb, prob)
		}
	}
}

// TestCompileInvalidation is the stale-compiled-state regression test:
// swapping a sub-model (retraining) must recompile the flat forms, and a
// dataset mutated after a batch score must rescore at its new size —
// mirroring the columnar view's invalidation.
func TestCompileInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ds := compileTestDataset(rng, 200)
	a, err := Train(ds, c45.NewLearner(), TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Compile()
	gen1 := a.comp.Load()
	if gen1 == nil {
		t.Fatal("Compile left no kernel generation")
	}
	if a.comp.Load() != gen1 {
		t.Fatal("idempotent Compile rebuilt a fresh generation")
	}

	// Retrain a sub-model on different data and splice it in: the stale
	// kernels must not serve it.
	ds2 := compileTestDataset(rng, 200)
	b, err := Train(ds2, c45.NewLearner(), TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Models[0] = b.Models[0]
	probe := make([]int, len(a.Attrs))
	for j, at := range a.Attrs {
		probe[j] = rng.Intn(at.Card)
	}
	want := a.AvgProbability(probe) // reference always reads Models directly
	if got := a.Score(probe, Probability); got != want {
		t.Fatalf("Score after model swap = %v, reference %v (stale kernels?)", got, want)
	}
	if a.comp.Load() == gen1 {
		t.Fatal("model swap did not recompile the kernel generation")
	}

	// Mutating the scored dataset must be picked up by the next ScoreAll.
	before := a.ScoreAll(ds, Probability)
	row := make([]int, len(ds.Attrs))
	for j, at := range ds.Attrs {
		row[j] = rng.Intn(at.Card)
	}
	if err := ds.Add(row); err != nil {
		t.Fatal(err)
	}
	after := a.ScoreAll(ds, Probability)
	if len(after) != len(before)+1 {
		t.Fatalf("ScoreAll after Add scored %d rows, want %d", len(after), len(before)+1)
	}
	if want := a.AvgProbability(row); after[len(after)-1] != want {
		t.Fatalf("appended row scored %v, reference %v", after[len(after)-1], want)
	}

	// Swapping one Naive Bayes sub-model must rebuild the fused ensemble,
	// which otherwise still holds the old model's tables.
	nb, err := Train(ds, nbayes.NewLearner(), TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	other := ml.NewDataset(ds.Attrs) // same schema, different rows
	for i := 0; i < 100; i++ {
		for j, at := range ds.Attrs {
			row[j] = rng.Intn(at.Card)
		}
		if err := other.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	nb2, err := Train(other, nbayes.NewLearner(), TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	nb.Compile()
	nbGen := nb.comp.Load()
	if nbGen.nb == nil {
		t.Fatal("Naive Bayes analyzer compiled no ensemble")
	}
	nb.Models[1] = nb2.Models[1]
	if got, want := nb.Score(probe, MatchCount), nb.AvgMatchCount(probe); got != want {
		t.Fatalf("NB Score after model swap = %v, reference %v (stale ensemble?)", got, want)
	}
	if got := nb.comp.Load(); got == nbGen || got.nb == nil || got.nb == nbGen.nb {
		t.Fatal("NB model swap did not rebuild the ensemble")
	}
	if got, want := nb.ScoreAll(ds, Probability), referenceScores(nb, ds.X, Probability); !reflect.DeepEqual(got, want) {
		t.Fatal("NB ScoreAll after model swap differs from the reference")
	}
}

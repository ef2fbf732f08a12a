package nbayes

import (
	"math"
	"math/rand"
	"testing"

	"crossfeature/internal/ml"
)

// sameBits reports whether two distributions are bit-for-bit identical
// (stricter than ==, which equates +0 and -0 and never matches NaN).
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

// fitAll fits one model per attribute of ds — the cross-feature layout —
// and masks each to nil with probability mask, as ablation does.
func fitAll(t *testing.T, rng *rand.Rand, l *Learner, ds *ml.Dataset, mask float64) []*Model {
	t.Helper()
	models := make([]*Model, len(ds.Attrs))
	for j := range ds.Attrs {
		if rng.Float64() < mask {
			continue
		}
		c, err := l.Fit(ds, j)
		if err != nil {
			t.Fatal(err)
		}
		models[j] = c.(*Model)
	}
	return models
}

// TestEnsembleDifferential pins the fused feature-major ensemble
// bit-identical to every member model's PredictProbaInto and ml.ArgMax on
// random datasets: single-class targets (log-prior [0]), ablated (nil)
// members, several smoothing constants, and short, over-long, negative
// and out-of-range probe rows.
func TestEnsembleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphas := []float64{0.5, 1, 2}
	singleClass := 0
	for trial := 0; trial < 60; trial++ {
		ds := randomDataset(rng)
		l := &Learner{Alpha: alphas[trial%len(alphas)]}
		mask := 0.0
		if trial%2 == 1 {
			mask = 0.4
		}
		models := fitAll(t, rng, l, ds, mask)
		e := CompileEnsemble(models)
		live := 0
		for _, m := range models {
			if m != nil {
				live++
				if len(m.LogPrior) == 1 {
					singleClass++
				}
			}
		}
		if live == 0 {
			if e != nil {
				t.Fatalf("trial %d: ensemble of only nil models is not nil", trial)
			}
			continue
		}
		if e == nil {
			t.Fatalf("trial %d: CompileEnsemble refused well-formed models", trial)
		}
		acc := make([]float64, e.Width())
		ref := make([]float64, 8)
		x := make([]int, len(ds.Attrs)+2)
		for probe := 0; probe < 40; probe++ {
			for j := range x {
				card := 3
				if j < len(ds.Attrs) {
					card = ds.Attrs[j].Card
				}
				x[j] = rng.Intn(card+3) - 1
			}
			px := x[:len(ds.Attrs)]
			switch probe % 5 {
			case 0:
				px = x[:rng.Intn(len(ds.Attrs)+1)]
			case 1:
				px = x
			}
			got := e.PredictProbaInto(px, acc)
			for i, m := range models {
				if m == nil {
					if len(e.Proba(got, i)) != 0 {
						t.Fatalf("trial %d: nil model %d owns a slot", trial, i)
					}
					continue
				}
				want := m.PredictProbaInto(px, ref)
				if !sameBits(e.Proba(got, i), want) {
					t.Fatalf("trial %d model %d: ensemble %v, reference %v on %v",
						trial, i, e.Proba(got, i), want, px)
				}
				for v := 0; v <= len(want); v++ {
					wantP := 0.0
					if v < len(want) {
						wantP = want[v]
					}
					p, match := e.TrueScore(got, i, v)
					if math.Float64bits(p) != math.Float64bits(wantP) || match != (ml.ArgMax(want) == v) {
						t.Fatalf("trial %d model %d: TrueScore(%v, %d) = (%v,%v), want (%v,%v)",
							trial, i, px, v, p, match, wantP, ml.ArgMax(want) == v)
					}
				}
			}
		}
	}
	if singleClass == 0 {
		t.Fatal("no single-class model was exercised")
	}
}

// TestEnsembleRefusesMalformedTables checks that CompileEnsemble returns
// nil, leaving callers on the reference path, for tables it cannot fuse
// without changing a score.
func TestEnsembleRefusesMalformedTables(t *testing.T) {
	ds := buildDataset(t, []int{3, 3, 2}, [][]int{{0, 1, 0}, {1, 1, 1}, {2, 0, 1}, {1, 2, 0}})
	fresh := func() []*Model {
		return fitAll(t, rand.New(rand.NewSource(1)), NewLearner(), ds, 0)
	}
	if CompileEnsemble(fresh()) == nil {
		t.Fatal("well-formed models refused")
	}
	cases := map[string]func(ms []*Model){
		"ragged table": func(ms []*Model) {
			tab := ms[0].LogCond[1]
			tab[0] = tab[0][:len(tab[0])-1]
		},
		"class count differs from prior": func(ms []*Model) {
			ms[0].LogCond[1] = ms[0].LogCond[1][:len(ms[0].LogCond[1])-1]
		},
		"models disagree on cardinality": func(ms []*Model) {
			tab := ms[0].LogCond[2]
			for c := range tab {
				tab[c] = append(tab[c], -1)
			}
		},
		"no classes": func(ms []*Model) {
			ms[1].LogPrior = nil
		},
	}
	for name, corrupt := range cases {
		ms := fresh()
		corrupt(ms)
		if CompileEnsemble(ms) != nil {
			t.Errorf("%s: CompileEnsemble accepted it", name)
		}
	}
	if CompileEnsemble(make([]*Model, 3)) != nil {
		t.Error("all-nil models compiled to an ensemble")
	}
}

package nbayes

import (
	"math"

	"crossfeature/internal/ml"
)

// Ensemble is the fused, feature-major inference form of a set of Naive
// Bayes models that read the same attribute schema — the L sub-models of a
// cross-feature analyzer. One W-wide accumulator, W = the sum of the class
// counts of the non-nil models in ascending model order, holds every
// model's log-posterior side by side (model i owns slot [lo[i], lo[i+1])).
// Scoring an event adds one contiguous W-wide row per attribute j, the row
// for value v = x[j], whose entry for model i and class c is
// LogCond_i[j][c][v], or -0.0 where model i has no table for j.
//
// Scores are bit-identical to each model's PredictProbaInto: every slot
// starts from the model's log-prior and sees the model's own table entries
// added in ascending attribute order, skipping exactly the attributes the
// reference skips (beyond the event, or a value out of range). The filler
// -0.0 is an exact additive identity in IEEE 754 (y + -0.0 is y, bit for
// bit, for every y including +0.0 and the infinities), so the extra
// additions a model sees for attributes it has no table for change
// nothing. Each slot
// is then softmax-normalised by the same code as the reference. An
// Ensemble snapshots its source models and never observes later mutation.
type Ensemble struct {
	prior []float64 // W concatenated log-priors
	rows  []float64 // row (j, v) at off[j] + v*W
	off   []int     // per attribute row block offset; -1 when no table
	card  []int     // values per attribute; 0 when no table
	lo    []int32   // model i's slot is [lo[i], lo[i+1]); empty for nil
}

// CompileEnsemble fuses models (nil entries allowed, as for ablated
// sub-models) into one feature-major Ensemble. It returns nil when there
// is no model to fuse or the tables cannot be laid out without changing a
// score: a model with no classes, a table whose class count differs from
// the model's, rows of differing cardinality within a table, or two models
// disagreeing on an attribute's cardinality. Callers keep scoring such
// models through PredictProbaInto.
func CompileEnsemble(models []*Model) *Ensemble {
	e := &Ensemble{lo: make([]int32, len(models)+1)}
	attrs := 0
	for i, m := range models {
		e.lo[i+1] = e.lo[i]
		if m == nil {
			continue
		}
		if len(m.LogPrior) == 0 {
			return nil
		}
		e.lo[i+1] += int32(len(m.LogPrior))
		e.prior = append(e.prior, m.LogPrior...)
		attrs = max(attrs, len(m.LogCond))
	}
	if len(e.prior) == 0 {
		return nil
	}
	// Every table for an attribute must agree on its cardinality, which is
	// then the one range check the reference applies to every model.
	e.card = make([]int, attrs)
	have := make([]bool, attrs)
	for _, m := range models {
		if m == nil {
			continue
		}
		for j, tab := range m.LogCond {
			if len(tab) == 0 {
				continue // the reference skips nil and empty tables
			}
			if len(tab) != len(m.LogPrior) {
				return nil
			}
			card := len(tab[0])
			for _, r := range tab {
				if len(r) != card {
					return nil
				}
			}
			if have[j] && e.card[j] != card {
				return nil
			}
			have[j], e.card[j] = true, card
		}
	}
	total := 0
	for _, card := range e.card {
		total += card * len(e.prior)
	}
	e.rows = make([]float64, 0, total)
	e.off = make([]int, attrs)
	for j, card := range e.card {
		e.off[j] = -1
		if card > 0 {
			e.off[j] = len(e.rows)
		}
		for v := 0; v < card; v++ {
			for _, m := range models {
				if m == nil {
					continue
				}
				for c := range m.LogPrior {
					if j < len(m.LogCond) && len(m.LogCond[j]) > 0 {
						e.rows = append(e.rows, m.LogCond[j][c][v])
					} else {
						e.rows = append(e.rows, math.Copysign(0, -1))
					}
				}
			}
		}
	}
	return e
}

// Width reports W, the accumulator length PredictProbaInto needs.
func (e *Ensemble) Width() int { return len(e.prior) }

// NumEntries reports the fused table size (rows plus prior entries).
func (e *Ensemble) NumEntries() int { return len(e.rows) + len(e.prior) }

// PredictProbaInto computes every model's posterior for event x into acc,
// which must have length >= Width, and returns acc[:Width]; model i's
// distribution is Proba(acc, i).
func (e *Ensemble) PredictProbaInto(x []int, acc []float64) []float64 {
	w := len(e.prior)
	acc = acc[:w]
	copy(acc, e.prior)
	for j, off := range e.off {
		if off < 0 || j >= len(x) {
			continue
		}
		v := x[j]
		if v < 0 || v >= e.card[j] {
			continue // unseen value: contributes nothing
		}
		addRow(acc, e.rows[off+v*w:off+(v+1)*w])
	}
	for i := 1; i < len(e.lo); i++ {
		softmax(acc[e.lo[i-1]:e.lo[i]])
	}
	return acc
}

// Proba returns model i's class distribution out of an accumulator filled
// by PredictProbaInto (empty for a nil model).
func (e *Ensemble) Proba(acc []float64, i int) []float64 {
	return acc[e.lo[i]:e.lo[i+1]]
}

// TrueScore returns, from an accumulator filled by PredictProbaInto, the
// probability model i assigns to class v and whether v is its argmax
// prediction (first index on ties) — the ml.ScoreKernel contract. A class
// index outside the model's range yields probability 0.
func (e *Ensemble) TrueScore(acc []float64, i, v int) (p float64, match bool) {
	out := e.Proba(acc, i)
	if v >= 0 && v < len(out) {
		p = out[v]
	}
	return p, ml.ArgMax(out) == v
}

// addRow adds row into acc element-wise. Reslicing acc to the row's
// length lets the compiler drop the per-element bounds check, which is
// most of the loop's cost beyond the memory reads.
func addRow(acc, row []float64) {
	acc = acc[:len(row)]
	for k, r := range row {
		acc[k] += r
	}
}

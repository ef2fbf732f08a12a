package core

import (
	"time"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// CompileStats describes one flat-form kernel build: how many sub-models
// compiled, the footprint of each compiled representation, and the wall
// time of the pass. Serving exports these so reload cost is visible.
type CompileStats struct {
	// Models counts sub-models that compiled to a flat kernel (the rest
	// score through their reference implementation).
	Models int
	// TreeNodes is the total flattened C4.5 node count.
	TreeNodes int
	// RuleConds is the total RIPPER condition-matrix size.
	RuleConds int
	// TableEntries is the fused Naive Bayes ensemble's log-prob entries.
	TableEntries int
	// Duration is the wall time of the compile pass.
	Duration time.Duration
}

// compiledSet is one immutable generation of compiled kernels, built from
// a snapshot of the analyzer's Models slice. Freshness is checked against
// that snapshot so swapping a sub-model (retraining, ablation masking)
// invalidates the generation, mirroring how a mutated Dataset invalidates
// its cached column view.
type compiledSet struct {
	kernels []ml.ScoreKernel // nil entries score via the reference model
	// nb, when every non-nil sub-model is Naive Bayes, scores all of them
	// in one fused pass per event (kernels is then all nil).
	nb     *nbayes.Ensemble
	src    []ml.Classifier // the Models values the kernels came from
	bufLen int             // per-event scratch length: every class count, or nb's width
	stats  CompileStats
}

// fresh reports whether the set still matches the analyzer's models.
func (c *compiledSet) fresh(models []ml.Classifier) bool {
	if c == nil || len(c.src) != len(models) {
		return false
	}
	for i := range models {
		if c.src[i] != models[i] {
			return false
		}
	}
	return true
}

// Compile builds (or, after a model swap, rebuilds) the analyzer's flat
// inference kernels: contiguous node arrays for C4.5 trees, condition
// matrices for RIPPER rule sets and, for Naive Bayes, one fused
// feature-major table scoring all sub-models in a single pass per event.
// Scoring uses the kernels automatically once built; calling Compile up
// front just moves the one-time cost to load time (the serve path does
// this on every bundle load so no request pays it). The
// returned stats describe the build. Compilation never changes scores:
// every kernel is pinned bit-identical to its reference model.
func (a *Analyzer) Compile() CompileStats {
	return a.compiled().stats
}

// compiled returns the current kernel generation, building it on first
// use or when stale.
func (a *Analyzer) compiled() *compiledSet {
	if c := a.comp.Load(); c.fresh(a.Models) {
		return c
	}
	a.compMu.Lock()
	defer a.compMu.Unlock()
	if c := a.comp.Load(); c.fresh(a.Models) {
		return c
	}
	c := a.buildCompiled()
	a.comp.Store(c)
	return c
}

// compiledOrNil returns the kernels only when the analyzer has opted
// into compiled scoring: an analyzer that was never Compiled (nor
// batch-scored) keeps the reference pointer-walking path. Once a
// generation exists, a stale one — a sub-model swapped by retraining or
// ablation — is rebuilt rather than abandoned, so Score stays on the
// compiled path across model updates.
func (a *Analyzer) compiledOrNil() *compiledSet {
	c := a.comp.Load()
	if c == nil {
		return nil
	}
	if c.fresh(a.Models) {
		return c
	}
	return a.compiled()
}

func (a *Analyzer) buildCompiled() *compiledSet {
	start := time.Now()
	c := &compiledSet{
		kernels: make([]ml.ScoreKernel, len(a.Models)),
		src:     append([]ml.Classifier(nil), a.Models...),
		bufLen:  a.maxCard(),
	}
	if nbs, ok := nbModels(a.Models); ok {
		if c.nb = nbayes.CompileEnsemble(nbs); c.nb != nil {
			c.bufLen = max(c.bufLen, c.nb.Width())
			c.stats.Models = a.NumModels()
			c.stats.TableEntries = c.nb.NumEntries()
		}
	}
	for i, m := range a.Models {
		kc, ok := m.(ml.KernelCompiler)
		if !ok {
			continue
		}
		k := kc.CompileKernel()
		c.kernels[i] = k
		c.stats.Models++
		switch t := k.(type) {
		case *c45.Compiled:
			c.stats.TreeNodes += t.NumNodes()
		case *ripper.Compiled:
			c.stats.RuleConds += t.NumConds()
		}
	}
	c.stats.Duration = time.Since(start)
	return c
}

// nbModels returns the sub-models as Naive Bayes models (nil entries kept)
// when every non-nil one is Naive Bayes and there is at least one.
func nbModels(models []ml.Classifier) ([]*nbayes.Model, bool) {
	nbs := make([]*nbayes.Model, len(models))
	found := false
	for i, m := range models {
		if m == nil {
			continue
		}
		nb, ok := m.(*nbayes.Model)
		if !ok {
			return nil, false
		}
		nbs[i], found = nb, true
	}
	return nbs, found
}

// prepare runs the per-event work every sub-model shares — the fused Naive
// Bayes pass — and returns the ensemble's accumulator for trueScore (nil
// without an ensemble). buf must have length >= bufLen; the returned
// accumulator lives in it.
func (c *compiledSet) prepare(x []int, buf []float64) []float64 {
	if c.nb == nil {
		return nil
	}
	return c.nb.PredictProbaInto(x, buf)
}

// trueScore returns sub-model i's probability for the true value v of
// event x and whether v is its argmax prediction: from the ensemble
// accumulator nb when prepare filled one, from the model's flat kernel
// when it has one, or from the reference model m. buf is scratch of
// length >= bufLen and is left alone when nb is set (nb lives in it).
func (c *compiledSet) trueScore(i int, m ml.Classifier, x []int, v int, nb, buf []float64) (p float64, match bool) {
	if nb != nil {
		return c.nb.TrueScore(nb, i, v)
	}
	if k := c.kernels[i]; k != nil {
		return k.TrueScore(x, v, buf)
	}
	pr := ml.ProbaInto(m, x, buf)
	if v >= 0 && v < len(pr) {
		p = pr[v]
	}
	return p, ml.ArgMax(pr) == v
}

// kernelScore scores one event through the compiled kernels, replicating
// avgMatchCount/avgProbability — including the missing-feature skip and
// partial-average debias — bit for bit.
func (a *Analyzer) kernelScore(c *compiledSet, x []int, s Scorer, buf []float64) float64 {
	levels := a.NormalProb
	if s == MatchCount {
		levels = a.NormalMatch
	}
	haveLevels := len(levels) == len(a.Models)
	nb := c.prepare(x, buf)
	var sum, total, availLevel float64
	anyMissing := false
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		if a.missing(x, i) {
			anyMissing = true
			continue
		}
		total++
		if haveLevels {
			availLevel += levels[i]
		}
		p, match := c.trueScore(i, m, x, x[i], nb, buf)
		if s == MatchCount {
			if match {
				sum++
			}
		} else {
			sum += p
		}
	}
	if total == 0 {
		return 0
	}
	return a.debias(sum/total, availLevel, total, anyMissing, levels)
}

// ScoreAll scores every row of ds through the compiled kernels and the
// dataset's columnar view, compiling on first use. The accumulation is
// model-major — each sub-model streams down its column with buffers
// reused across rows — but visits models in the same ascending order per
// row as the per-event path, so the results are bit-identical to calling
// Score on each row. A Naive Bayes ensemble scores row-major (its fused
// pass already serves every sub-model of a row at once), as does a
// dataset whose schema width differs from the analyzer's or whose rows
// violate its own schema (the per-event path tolerates anything).
func (a *Analyzer) ScoreAll(ds *ml.Dataset, s Scorer) []float64 {
	if ds == nil {
		return nil
	}
	out := make([]float64, ds.Len())
	if len(out) == 0 {
		return out
	}
	c := a.compiled()
	if c.nb != nil || len(ds.Attrs) != len(a.Attrs) || ds.Validate() != nil {
		a.scoreEventsInto(c, ds.X, s, out)
		return out
	}
	cols := ds.Columns()
	levels := a.NormalProb
	if s == MatchCount {
		levels = a.NormalMatch
	}
	haveLevels := len(levels) == len(a.Models)
	n := len(out)
	var (
		sum        = make([]float64, n)
		avail      = make([]float64, n)
		totals     = make([]int32, n)
		anyMissing = make([]bool, n)
		scratch    = make([]float64, c.bufLen)
		pbuf       []float64
		mbuf       []bool
	)
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		at := a.Attrs[i]
		col := cols.Cols[i]
		lvl := 0.0
		if haveLevels {
			lvl = levels[i]
		}
		if bk, ok := c.kernels[i].(ml.BatchScoreKernel); ok {
			if pbuf == nil {
				pbuf = make([]float64, n)
				mbuf = make([]bool, n)
			}
			bk.TrueScoreAll(ds, i, pbuf, mbuf)
			for r := 0; r < n; r++ {
				if at.Missing(int(col[r])) {
					anyMissing[r] = true
					continue
				}
				totals[r]++
				avail[r] += lvl
				if s == MatchCount {
					if mbuf[r] {
						sum[r]++
					}
				} else {
					sum[r] += pbuf[r]
				}
			}
			continue
		}
		for r := 0; r < n; r++ {
			v := int(col[r])
			if at.Missing(v) {
				anyMissing[r] = true
				continue
			}
			totals[r]++
			avail[r] += lvl
			p, match := c.trueScore(i, m, ds.X[r], v, nil, scratch)
			if s == MatchCount {
				if match {
					sum[r]++
				}
			} else {
				sum[r] += p
			}
		}
	}
	for r := range out {
		if totals[r] == 0 {
			continue
		}
		t := float64(totals[r])
		out[r] = a.debias(sum[r]/t, avail[r], t, anyMissing[r], levels)
	}
	return out
}

// ScoreEvents scores a batch of raw event rows through the compiled
// kernels (compiling on first use), sharing one prediction buffer across
// the batch. Unlike ScoreAll it assumes nothing about the rows — short,
// over-long or out-of-range vectors degrade per feature exactly as
// Score's missing-value handling dictates.
func (a *Analyzer) ScoreEvents(xs [][]int, s Scorer) []float64 {
	out := make([]float64, len(xs))
	if len(xs) > 0 {
		a.scoreEventsInto(a.compiled(), xs, s, out)
	}
	return out
}

// scoreEventsInto scores xs row by row through generation c, sharing one
// scratch buffer (the ensemble accumulator included) across the rows.
func (a *Analyzer) scoreEventsInto(c *compiledSet, xs [][]int, s Scorer, out []float64) {
	buf := make([]float64, c.bufLen)
	for i, x := range xs {
		out[i] = a.kernelScore(c, x, s, buf)
	}
}

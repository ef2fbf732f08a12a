package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: with fewer, the "p99" of a short run is one or two outliers
// and moves with them.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of samples (which need not
// be sorted; the slice is sorted in place). Nearest rank picks a measured
// sample, never an interpolation between two, so the value is always one
// a client actually saw. It fails when fewer than minBeyond samples lie
// beyond the chosen rank.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("quantile p%g of no samples", q*100)
	}
	sort.Float64s(samples)
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if beyond := n - k; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			q*100, n, beyond, minBeyond)
	}
	return samples[k-1], nil
}

// msOf converts durations to float64 milliseconds for quantile.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// median is the lower-middle nearest-rank median, for small repeated
// measurements (set-up repetitions, replay requests) where the
// minBeyond rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// ratePoint is one fixed open-loop rate's outcome.
type ratePoint struct {
	Name       string  `json:"name"`
	Rate       float64 `json:"rate_rec_s"`     // scheduled arrival rate
	Achieved   float64 `json:"achieved_rec_s"` // records answered in full per second
	Windows    int     `json:"windows"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	P50ms      float64 `json:"p50_ms"`
	P99ms      float64 `json:"p99_ms"`
	LagP99ms   float64 `json:"gen_lag_p99_ms"`
	BacklogMax int     `json:"gen_backlog_max"`
	Growing    bool    `json:"backlog_growing"`
}

// maxOKRate picks the highest-rate point whose p99 meets limitMS with no
// failed operation and no growing generator backlog, and returns its
// achieved rate. ok is false when no point qualifies.
func maxOKRate(points []ratePoint, limitMS float64) (rate float64, ok bool) {
	best := -1.0
	for _, p := range points {
		if p.Failed > 0 || p.Growing || p.P99ms > limitMS {
			continue
		}
		if p.Rate > best {
			best, rate, ok = p.Rate, p.Achieved, true
		}
	}
	return rate, ok
}

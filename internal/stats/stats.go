// Package stats provides the streaming and batch statistics used across the
// simulator: Welford running moments, quantiles and CDFs for the Fig. 4
// accuracy comparison (including Kolmogorov–Smirnov distance between a full
// and an approximate run), and fixed-width time windows for the macro-state
// classifier's latency/drop-rate history.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean, and variance in one pass (Welford).
// The zero value is ready to use.
type Running struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Count returns the number of samples added.
func (r *Running) Count() uint64 { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (0 with <2 samples).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest sample (0 with no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 with no samples).
func (r *Running) Max() float64 { return r.max }

// String summarizes the accumulator for reports.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.6g min=%.6g max=%.6g",
		r.n, r.Mean(), r.Std(), r.min, r.max)
}

// Sample is a batch of observations supporting quantiles and CDF queries.
// Add observations, then call sort-dependent methods; sorting is lazy and
// cached.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Len returns the observation count.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns the observations sorted ascending. The returned slice is
// owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	return s.xs
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation.
// It panics on an empty sample or out-of-range q: querying statistics that
// do not exist is a programming error.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile(%v) out of [0,1]", q))
	}
	s.ensureSorted()
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	if lo == len(s.xs)-1 {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Mean returns the sample mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// CDFAt returns the empirical CDF evaluated at x: P(X <= x).
func (s *Sample) CDFAt(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	// Count of values <= x == index of first value > x.
	idx := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > x })
	return float64(idx) / float64(len(s.xs))
}

// CDFPoint is one (value, cumulative probability) pair of an empirical CDF.
type CDFPoint struct {
	Value float64
	P     float64
}

// CDF returns up to maxPoints evenly spaced points of the empirical CDF,
// suitable for plotting (the Fig. 4 series).
func (s *Sample) CDF(maxPoints int) []CDFPoint {
	s.ensureSorted()
	n := len(s.xs)
	if n == 0 {
		return nil
	}
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := (i + 1)
		if maxPoints < n {
			idx = (i + 1) * n / maxPoints
		}
		if idx > n {
			idx = n
		}
		pts = append(pts, CDFPoint{Value: s.xs[idx-1], P: float64(idx) / float64(n)})
	}
	return pts
}

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic
// sup_x |F_a(x) - F_b(x)| — the accuracy metric we report alongside the
// paper's visual CDF comparison. It panics if either sample is empty.
func KSDistance(a, b *Sample) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		panic("stats: KSDistance of empty sample")
	}
	av, bv := a.Values(), b.Values()
	var i, j int
	var d float64
	na, nb := float64(len(av)), float64(len(bv))
	for i < len(av) && j < len(bv) {
		// Advance past every observation equal to the smaller head value on
		// BOTH sides, so ties contribute to both CDFs before comparing.
		x := av[i]
		if bv[j] < x {
			x = bv[j]
		}
		for i < len(av) && av[i] <= x {
			i++
		}
		for j < len(bv) && bv[j] <= x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// Window accumulates observations within fixed-width time buckets and keeps
// the most recent buckets. The macro-state classifier feeds it per-packet
// latency/drop observations and reads back windowed averages and trends.
type Window struct {
	width   int64 // bucket width in the caller's time unit (ns)
	keep    int
	buckets []bucket
}

type bucket struct {
	start int64
	sum   float64
	n     uint64
	drops uint64
}

// NewWindow creates a windowed accumulator with the given bucket width and
// number of retained buckets.
func NewWindow(width int64, keep int) *Window {
	if width <= 0 || keep <= 0 {
		panic("stats: Window needs positive width and keep")
	}
	return &Window{width: width, keep: keep}
}

// Observe records a latency observation (or a drop) at time t.
func (w *Window) Observe(t int64, latency float64, dropped bool) {
	start := (t / w.width) * w.width
	n := len(w.buckets)
	if n == 0 || w.buckets[n-1].start != start {
		w.buckets = append(w.buckets, bucket{start: start})
		if len(w.buckets) > w.keep {
			w.buckets = w.buckets[len(w.buckets)-w.keep:]
		}
		n = len(w.buckets)
	}
	b := &w.buckets[n-1]
	if dropped {
		b.drops++
	} else {
		b.sum += latency
		b.n++
	}
}

// Buckets returns the number of populated buckets.
func (w *Window) Buckets() int { return len(w.buckets) }

// MeanLatency returns the mean latency in the i-th most recent bucket
// (0 = current). ok is false if the bucket doesn't exist or saw no
// successful deliveries.
func (w *Window) MeanLatency(i int) (mean float64, ok bool) {
	b, found := w.bucket(i)
	if !found || b.n == 0 {
		return 0, false
	}
	return b.sum / float64(b.n), true
}

// DropRate returns drops/(drops+delivered) for the i-th most recent bucket.
func (w *Window) DropRate(i int) (rate float64, ok bool) {
	b, found := w.bucket(i)
	if !found || b.n+b.drops == 0 {
		return 0, false
	}
	return float64(b.drops) / float64(b.n+b.drops), true
}

func (w *Window) bucket(i int) (bucket, bool) {
	if i < 0 || i >= len(w.buckets) {
		return bucket{}, false
	}
	return w.buckets[len(w.buckets)-1-i], true
}

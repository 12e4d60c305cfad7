package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"approxsim/internal/rng"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.Count() != 8 {
		t.Errorf("Count = %d", r.Count())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(r.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", r.Var(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.Count() != 0 {
		t.Error("zero-value Running must report zeros")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Var() != 0 || r.Min() != 3 || r.Max() != 3 {
		t.Error("single-sample stats wrong")
	}
}

func TestPropertyRunningMatchesBatch(t *testing.T) {
	f := func(xs []float64) bool {
		// Filter NaN/Inf inputs; they are not meaningful observations.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var r Running
		var sum float64
		for _, x := range clean {
			r.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var m2 float64
		for _, x := range clean {
			m2 += (x - mean) * (x - mean)
		}
		wantVar := m2 / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(mean))
		if math.Abs(r.Mean()-mean)/scale > 1e-9 {
			return false
		}
		vscale := math.Max(1, wantVar)
		return math.Abs(r.Var()-wantVar)/vscale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	s := NewSample(5)
	for _, x := range []float64{10, 20, 30, 40, 50} {
		s.Add(x)
	}
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.125, 15},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	s := NewSample(0)
	for _, f := range []func(){
		func() { s.Quantile(0.5) },
		func() { s.Add(1); s.Quantile(-0.1) },
		func() { s.Quantile(1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCDFAt(t *testing.T) {
	s := NewSample(4)
	for _, x := range []float64{1, 2, 3, 4} {
		s.Add(x)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := s.CDFAt(c.x); got != c.want {
			t.Errorf("CDFAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	s := NewSample(100)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[9].P != 1 || pts[9].Value != 100 {
		t.Errorf("last point = %+v, want value 100 P 1", pts[9])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P < pts[i-1].P || pts[i].Value < pts[i-1].Value {
			t.Fatal("CDF points not monotone")
		}
	}
	if s2 := NewSample(0); s2.CDF(5) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestKSDistanceIdentical(t *testing.T) {
	a, b := NewSample(100), NewSample(100)
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		x := r.Float64()
		a.Add(x)
		b.Add(x)
	}
	if d := KSDistance(a, b); d != 0 {
		t.Errorf("KS of identical samples = %v, want 0", d)
	}
}

func TestKSDistanceDisjoint(t *testing.T) {
	a, b := NewSample(10), NewSample(10)
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
		b.Add(float64(i + 100))
	}
	if d := KSDistance(a, b); math.Abs(d-1) > 1e-12 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSDistanceShifted(t *testing.T) {
	// Uniform[0,1] vs Uniform[0.5,1.5] → KS = 0.5 asymptotically.
	r := rng.New(2)
	a, b := NewSample(0), NewSample(0)
	for i := 0; i < 20000; i++ {
		a.Add(r.Float64())
		b.Add(r.Float64() + 0.5)
	}
	if d := KSDistance(a, b); math.Abs(d-0.5) > 0.03 {
		t.Errorf("KS = %v, want ~0.5", d)
	}
}

func TestKSSymmetric(t *testing.T) {
	r := rng.New(3)
	a, b := NewSample(0), NewSample(0)
	for i := 0; i < 500; i++ {
		a.Add(r.Normal(0, 1))
	}
	for i := 0; i < 300; i++ {
		b.Add(r.Normal(0.3, 1.2))
	}
	if d1, d2 := KSDistance(a, b), KSDistance(b, a); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("KS not symmetric: %v vs %v", d1, d2)
	}
}

func TestWindowBucketing(t *testing.T) {
	w := NewWindow(100, 3)
	w.Observe(10, 1.0, false)
	w.Observe(50, 3.0, false)
	w.Observe(150, 10.0, false)
	w.Observe(160, 0, true) // drop in second bucket
	if w.Buckets() != 2 {
		t.Fatalf("Buckets = %d, want 2", w.Buckets())
	}
	if m, ok := w.MeanLatency(0); !ok || m != 10 {
		t.Errorf("current bucket mean = %v,%v", m, ok)
	}
	if m, ok := w.MeanLatency(1); !ok || m != 2 {
		t.Errorf("previous bucket mean = %v,%v want 2", m, ok)
	}
	if r, ok := w.DropRate(0); !ok || r != 0.5 {
		t.Errorf("current drop rate = %v,%v want 0.5", r, ok)
	}
	if r, ok := w.DropRate(1); !ok || r != 0 {
		t.Errorf("previous drop rate = %v,%v want 0", r, ok)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(10, 2)
	w.Observe(5, 1, false)
	w.Observe(15, 2, false)
	w.Observe(25, 3, false)
	if w.Buckets() != 2 {
		t.Fatalf("Buckets = %d after eviction, want 2", w.Buckets())
	}
	if _, ok := w.MeanLatency(2); ok {
		t.Error("evicted bucket still reachable")
	}
	if m, _ := w.MeanLatency(1); m != 2 {
		t.Errorf("oldest retained mean = %v, want 2", m)
	}
}

func TestWindowEmptyQueries(t *testing.T) {
	w := NewWindow(10, 2)
	if _, ok := w.MeanLatency(0); ok {
		t.Error("empty window returned a mean")
	}
	if _, ok := w.DropRate(0); ok {
		t.Error("empty window returned a drop rate")
	}
	// Bucket with only drops has no mean latency but a drop rate of 1.
	w.Observe(1, 0, true)
	if _, ok := w.MeanLatency(0); ok {
		t.Error("drop-only bucket returned a mean latency")
	}
	if r, ok := w.DropRate(0); !ok || r != 1 {
		t.Errorf("drop-only bucket rate = %v,%v want 1", r, ok)
	}
}

func TestPropertyQuantileWithinRange(t *testing.T) {
	f := func(xs []float64, q float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		q = math.Abs(q)
		q -= math.Floor(q) // map into [0,1)
		s := NewSample(len(clean))
		for _, x := range clean {
			s.Add(x)
		}
		v := s.Quantile(q)
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		return v >= sorted[0] && v <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRunningAdd(b *testing.B) {
	var r Running
	for i := 0; i < b.N; i++ {
		r.Add(float64(i % 1000))
	}
}

func BenchmarkKSDistance(b *testing.B) {
	r := rng.New(1)
	a, c := NewSample(10000), NewSample(10000)
	for i := 0; i < 10000; i++ {
		a.Add(r.Float64())
		c.Add(r.Float64())
	}
	a.Values()
	c.Values()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSDistance(a, c)
	}
}

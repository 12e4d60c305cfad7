package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 || g.HighWater() != 7 {
		t.Errorf("gauge = %d/%d, want 3/7", g.Value(), g.HighWater())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Summary(); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty histogram summary not zero: %+v", s)
	}
	for _, v := range []uint64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 5 || s.Min != 1 || s.Max != 1000 {
		t.Errorf("summary = %+v", s)
	}
	wantMean := float64(1+2+3+100+1000) / 5
	if s.Mean != wantMean {
		t.Errorf("mean = %g, want %g", s.Mean, wantMean)
	}
	// p50 must land in the bucket of the median sample (3 -> [2,4)).
	if s.P50 < 1 || s.P50 > 4 {
		t.Errorf("p50 = %g, want within [1,4]", s.P50)
	}
	if s.P99 > float64(s.Max) {
		t.Errorf("p99 %g exceeds max %d", s.P99, s.Max)
	}
}

// TestHistogramObserveN checks that ObserveN(v, n) leaves the same count,
// sum, buckets, min and max as n calls of Observe(v), from empty and from a
// histogram that already holds samples on either side of v.
func TestHistogramObserveN(t *testing.T) {
	for _, prior := range [][]uint64{nil, {1, 5000}, {700}} {
		for _, v := range []uint64{0, 1, 3, 900, 1 << 40} {
			for _, n := range []uint64{0, 1, 16} {
				var once, each Histogram
				for _, p := range prior {
					once.Observe(p)
					each.Observe(p)
				}
				once.ObserveN(v, n)
				for i := uint64(0); i < n; i++ {
					each.Observe(v)
				}
				if once != each {
					t.Errorf("prior %v: ObserveN(%d, %d) = %+v, %d Observe calls %+v", prior, v, n, once, n, each)
				}
			}
		}
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	var h Histogram
	h.Observe(10)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 10 {
			t.Errorf("Quantile(%g) = %g, want 10 (single sample)", q, got)
		}
	}
}

func TestRegistryMergesSameNames(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		i := i
		r.RegisterFunc("grp", func(e *Emitter) {
			e.Counter("hits", 10)
			e.Gauge("depth", int64(i))
			var h Histogram
			h.Observe(uint64(100 * (i + 1)))
			e.Histogram("lat", &h)
		})
	}
	s := r.Snapshot()
	if got := s.Counter("grp", "hits"); got != 30 {
		t.Errorf("merged counter = %d, want 30", got)
	}
	if got := s.Gauge("grp", "depth"); got != 2 {
		t.Errorf("merged gauge = %d, want max 2", got)
	}
	v, ok := s.Get("grp", "lat")
	if !ok || v.Hist.Count != 3 || v.Hist.Max != 300 {
		t.Errorf("merged histogram = %+v", v.Hist)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.RegisterFunc("beta", func(e *Emitter) {
			e.Counter("z_last", 1)
			e.Counter("a_first", 2)
		})
		r.RegisterFunc("alpha", func(e *Emitter) {
			e.Gauge("g", 5)
			var h Histogram
			h.Observe(7)
			e.Histogram("h", &h)
		})
		return r
	}
	j1, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(build().Snapshot())
	if string(j1) != string(j2) {
		t.Fatalf("snapshots differ:\n%s\n%s", j1, j2)
	}
	// Registration order ("beta" first) and emission order ("z_last" first)
	// must survive serialization.
	txt := string(j1)
	if !strings.HasPrefix(txt, `{"beta":{"z_last":1,"a_first":2}`) {
		t.Errorf("order not preserved: %s", txt)
	}
	// Round-trips as ordinary JSON.
	var decoded map[string]map[string]any
	if err := json.Unmarshal(j1, &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, j1)
	}
	if decoded["alpha"]["g"].(float64) != 5 {
		t.Errorf("gauge did not round-trip: %v", decoded)
	}
}

func TestSnapshotNamesAndGroups(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("b", func(e *Emitter) { e.Counter("x", 1) })
	r.RegisterFunc("a", func(e *Emitter) { e.Counter("y", 1) })
	r.RegisterFunc("b", func(e *Emitter) { e.Counter("x", 1) })
	groups := r.Groups()
	if len(groups) != 2 || groups[0] != "b" || groups[1] != "a" {
		t.Errorf("groups = %v", groups)
	}
	names := r.Snapshot().Names()
	if len(names) != 2 || names[0] != "a.y" || names[1] != "b.x" {
		t.Errorf("names = %v", names)
	}
}

// Merging a zero-count histogram must not disturb min/max of the target, and
// merging into a zero-count target must adopt the source's extrema.
func TestHistogramZeroCountMerge(t *testing.T) {
	var target, empty, src Histogram
	target.Observe(10)
	target.merge(&empty)
	if s := target.Summary(); s.Count != 1 || s.Min != 10 || s.Max != 10 {
		t.Errorf("merge of empty changed summary: %+v", s)
	}

	var fresh Histogram
	src.Observe(5)
	src.Observe(500)
	fresh.merge(&src)
	if s := fresh.Summary(); s.Count != 2 || s.Min != 5 || s.Max != 500 {
		t.Errorf("merge into empty lost extrema: %+v", s)
	}

	// Two empties merged stay empty and serialize as all-zero.
	var a, b Histogram
	a.merge(&b)
	if s := a.Summary(); s != (HistogramSummary{}) {
		t.Errorf("empty merge produced non-zero summary: %+v", s)
	}
}

// The largest possible sample lands in the last bucket (index 64) without
// indexing past the array, and quantiles stay clamped to the observed max.
func TestHistogramMaxBucketOverflow(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxUint64)
	h.Observe(math.MaxUint64)
	s := h.Summary()
	if s.Count != 2 || s.Max != math.MaxUint64 || s.Min != math.MaxUint64 {
		t.Fatalf("summary = %+v", s)
	}
	if q := h.Quantile(0.99); q != float64(math.MaxUint64) {
		t.Errorf("p99 = %v, want clamped to max", q)
	}
	// sum wrapped (2 * MaxUint64 overflows); Observe must still have counted
	// both samples in the top bucket.
	var probe Histogram
	probe.Observe(math.MaxUint64)
	if probe.buckets[histBuckets-1] != 1 {
		t.Errorf("MaxUint64 not in bucket %d", histBuckets-1)
	}
}

func TestCounterStoreHistogramCopyFrom(t *testing.T) {
	var c Counter
	c.Add(9)
	saved := c // by-value checkpoint
	c.Add(100)
	c.Store(saved.Value())
	if c.Value() != 9 {
		t.Errorf("Store restore: got %d, want 9", c.Value())
	}

	var h Histogram
	h.Observe(3)
	savedH := h
	h.Observe(7)
	h.CopyFrom(&savedH)
	if got := h.Summary(); got.Count != 1 || got.Max != 3 {
		t.Errorf("CopyFrom restore: %+v", got)
	}
}

// gateFunc adapts a function to Gate.
type gateFunc func(collect func())

func (f gateFunc) Hold(collect func()) { f(collect) }

// Snapshot runs every collector inside every gate, once each, in the order
// the gates were added; SnapshotUngated enters none.
func TestSnapshotInsideGates(t *testing.T) {
	r := NewRegistry()
	var trail []string
	r.RegisterFunc("g", func(e *Emitter) {
		trail = append(trail, "collect")
		e.Counter("n", 1)
	})
	for _, name := range []string{"a", "b"} {
		r.AddGate(gateFunc(func(collect func()) {
			trail = append(trail, name+"<")
			collect()
			trail = append(trail, ">"+name)
		}))
	}
	if s := r.Snapshot(); s.Counter("g", "n") != 1 {
		t.Fatalf("gated snapshot lost the counter: %v", s.Names())
	}
	if got, want := strings.Join(trail, " "), "a< b< collect >b >a"; got != want {
		t.Errorf("gated snapshot ran %q, want %q", got, want)
	}
	trail = nil
	if s := r.SnapshotUngated(); s.Counter("g", "n") != 1 {
		t.Fatalf("ungated snapshot lost the counter: %v", s.Names())
	}
	if got := strings.Join(trail, " "); got != "collect" {
		t.Errorf("ungated snapshot ran %q, want just the collection", got)
	}
}

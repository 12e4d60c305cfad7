// Package metrics is the simulator-wide observability layer: allocation-free
// counters, gauges, and log2-bucketed histograms owned by the component that
// updates them, plus a registry that aggregates everything into a snapshot on
// demand.
//
// Design constraints, in order:
//
//   - Near-zero cost on the hot path. There is no lock and no map lookup per
//     update; the des kernel executes tens of millions of events per second
//     and must barely notice it is being observed. The counters the event
//     path writes most (the kernel's, the ports' and the hosts') are plain
//     fields of the goroutine that runs them, with no locked instruction.
//   - Gated reads of plain counters. A simulation whose collectors read plain
//     fields installs a Gate (AddGate), and Snapshot runs every collector
//     inside it: mid-run, the gate pauses the simulation's goroutines at a
//     safepoint (an event boundary) for the length of the collection, so
//     Registry.Snapshot may still run concurrently with a live simulation
//     (the interval sampler in internal/obs does exactly that).
//   - Single-writer atomics for the instruments. Counter, Gauge and Histogram
//     are updated only by their owning goroutine but read and written through
//     sync/atomic, because some of them (the scenario server's) are shared by
//     goroutines no gate stops. Instruments stay plain structs — no noCopy —
//     so the PDES state savers can checkpoint them by value; restore paths
//     use Store/CopyFrom, which write atomically. A snapshot of instruments
//     outside a gate is weakly consistent: every field is individually
//     torn-free, but cross-field invariants (a histogram's sum/count pair, a
//     gauge against its high-water) are only exact at quiescence.
//   - Deterministic output. Snapshots iterate groups in registration order
//     and metrics in first-emission order, so two identical runs serialize to
//     byte-identical JSON — diffable in tests and across commits.
//
// Components implement Collector; same-named metrics emitted by multiple
// collectors under one group are merged (counters sum, gauges take the max,
// histograms pool their buckets), which is how per-port, per-LP, and per-stack
// instruments roll up into subsystem totals.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count (Time Warp rollback is
// the one sanctioned exception: restoring a checkpoint may Store a smaller
// value). It must be updated only by its owning goroutine; any goroutine may
// read it.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { atomic.AddUint64(&c.n, 1) }

// Add adds d.
func (c *Counter) Add(d uint64) { atomic.AddUint64(&c.n, d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return atomic.LoadUint64(&c.n) }

// Store overwrites the count. It exists for state restore (rollback); normal
// updates must use Inc/Add.
func (c *Counter) Store(v uint64) { atomic.StoreUint64(&c.n, v) }

// Gauge is a last-value instrument that also tracks its high-water mark.
// It must be updated only by its owning goroutine; any goroutine may read it.
type Gauge struct{ cur, hi int64 }

// Set records the current value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	atomic.StoreInt64(&g.cur, v)
	if v > atomic.LoadInt64(&g.hi) {
		atomic.StoreInt64(&g.hi, v)
	}
}

// Value returns the last value set.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.cur) }

// HighWater returns the largest value ever set.
func (g *Gauge) HighWater() int64 { return atomic.LoadInt64(&g.hi) }

// histBuckets is the bucket count: bucket i holds samples v with
// bits.Len64(v) == i, i.e. [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a log2-bucketed distribution of non-negative samples.
// Observe is allocation-free and O(1); quantiles are estimated from bucket
// boundaries (exact min and max are tracked separately). It must be updated
// only by its owning goroutine.
type Histogram struct {
	count    uint64
	sum      uint64
	min, max uint64
	buckets  [histBuckets]uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records v as n samples, for a caller that measures one in n
// operations: count, sum and v's bucket grow by n, so the mean stays an
// unbiased estimate over all of them. n = 0 records nothing.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	if atomic.LoadUint64(&h.count) == 0 || v < atomic.LoadUint64(&h.min) {
		atomic.StoreUint64(&h.min, v)
	}
	if v > atomic.LoadUint64(&h.max) {
		atomic.StoreUint64(&h.max, v)
	}
	atomic.AddUint64(&h.count, n)
	atomic.AddUint64(&h.sum, v*n)
	atomic.AddUint64(&h.buckets[bits.Len64(v)], n)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return atomic.LoadUint64(&h.count) }

// CopyFrom overwrites h with a torn-free copy of other's current contents.
// It exists for state restore (rollback); normal updates must use Observe.
func (h *Histogram) CopyFrom(other *Histogram) {
	atomic.StoreUint64(&h.min, atomic.LoadUint64(&other.min))
	atomic.StoreUint64(&h.max, atomic.LoadUint64(&other.max))
	atomic.StoreUint64(&h.sum, atomic.LoadUint64(&other.sum))
	for i := range h.buckets {
		atomic.StoreUint64(&h.buckets[i], atomic.LoadUint64(&other.buckets[i]))
	}
	// count last: readers gate on count, so an interleaved reader sees at
	// worst the old count against new buckets, never a half-written copy.
	atomic.StoreUint64(&h.count, atomic.LoadUint64(&other.count))
}

// merge pools other into h. h is a snapshot-private accumulator (plain writes
// are fine); other may belong to a live component, so its fields are read
// atomically.
func (h *Histogram) merge(other *Histogram) {
	ocount := atomic.LoadUint64(&other.count)
	if ocount == 0 {
		return
	}
	omin := atomic.LoadUint64(&other.min)
	omax := atomic.LoadUint64(&other.max)
	if h.count == 0 || omin < h.min {
		h.min = omin
	}
	if omax > h.max {
		h.max = omax
	}
	h.count += ocount
	h.sum += atomic.LoadUint64(&other.sum)
	for i := range h.buckets {
		h.buckets[i] += atomic.LoadUint64(&other.buckets[i])
	}
}

// Quantile estimates the q'th quantile (q in [0,1]) as the geometric midpoint
// of the bucket containing it, clamped to the observed min/max.
func (h *Histogram) Quantile(q float64) float64 {
	count := atomic.LoadUint64(&h.count)
	if count == 0 {
		return 0
	}
	hmin := atomic.LoadUint64(&h.min)
	hmax := atomic.LoadUint64(&h.max)
	rank := uint64(q * float64(count))
	if rank >= count {
		rank = count - 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += atomic.LoadUint64(&h.buckets[i])
		if seen <= rank {
			continue
		}
		var est float64
		if i == 0 {
			est = 0
		} else {
			lo := math.Exp2(float64(i - 1))
			est = lo * 1.5 // midpoint of [2^(i-1), 2^i)
		}
		est = math.Max(est, float64(hmin))
		est = math.Min(est, float64(hmax))
		return est
	}
	return float64(hmax)
}

// Summary reduces the histogram to the fields a snapshot serializes.
func (h *Histogram) Summary() HistogramSummary {
	count := atomic.LoadUint64(&h.count)
	s := HistogramSummary{
		Count: count,
		Min:   atomic.LoadUint64(&h.min),
		Max:   atomic.LoadUint64(&h.max),
	}
	if count > 0 {
		s.Mean = float64(atomic.LoadUint64(&h.sum)) / float64(count)
		s.P50 = h.Quantile(0.50)
		s.P99 = h.Quantile(0.99)
	}
	return s
}

// HistogramSummary is the serialized form of a Histogram.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Collector is implemented by any component that exposes metrics. It must
// emit every metric it owns, zero-valued or not, so snapshot schemas stay
// stable across runs. It may be called while the owning goroutines are live
// if it reads only instruments (they are read atomically) or if its owner
// installed a Gate on the registry; collectors that derive values from other
// state must otherwise read it race-free themselves.
type Collector interface {
	CollectMetrics(e *Emitter)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(*Emitter)

// CollectMetrics implements Collector.
func (f CollectorFunc) CollectMetrics(e *Emitter) { f(e) }

// Gate lets a registry read collectors whose state is written, without
// atomics, by goroutines of a running simulation. Hold calls collect exactly
// once, at a time when none of those goroutines writes: while it pauses them
// at a safepoint, or at once when nothing runs.
type Gate interface {
	Hold(collect func())
}

// Registry holds named collectors grouped by subsystem prefix ("des",
// "pdes", "netsim", ...). Registration order fixes snapshot order.
type Registry struct {
	mu      sync.Mutex
	entries []regEntry
	gates   []Gate
}

type regEntry struct {
	group string
	c     Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector under group. Many collectors may share a group;
// their same-named metrics merge in the snapshot.
func (r *Registry) Register(group string, c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, regEntry{group: group, c: c})
}

// AddGate makes every later Snapshot collect inside g (see Gate). Add each
// gate once: a gate entered twice waits on itself.
func (r *Registry) AddGate(g Gate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gates = append(r.gates, g)
}

// RegisterFunc is Register for a bare function.
func (r *Registry) RegisterFunc(group string, f func(*Emitter)) {
	r.Register(group, CollectorFunc(f))
}

// Groups returns the distinct group names in registration order.
func (r *Registry) Groups() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	seen := map[string]bool{}
	for _, e := range r.entries {
		if !seen[e.group] {
			seen[e.group] = true
			out = append(out, e.group)
		}
	}
	return out
}

// Snapshot collects every registered metric inside every gate (see Gate),
// the first gate added outermost. It is safe to call while the simulation is
// running; a snapshot at quiescence is exact and deterministic.
func (r *Registry) Snapshot() *Snapshot {
	entries, gates := r.registered()
	var s *Snapshot
	collect := func() { s = collectAll(entries) }
	for i := len(gates) - 1; i >= 0; i-- {
		g, inner := gates[i], collect
		collect = func() { g.Hold(inner) }
	}
	collect()
	return s
}

// SnapshotUngated collects every registered metric without entering the
// gates. It is for a caller that is itself the only writer of every gated
// collector — an event on the kernel of a one-LP run, which would otherwise
// wait on itself for the run to reach a safepoint.
func (r *Registry) SnapshotUngated() *Snapshot {
	entries, _ := r.registered()
	return collectAll(entries)
}

// registered copies the collectors and gates out from under the lock.
func (r *Registry) registered() ([]regEntry, []Gate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]regEntry(nil), r.entries...), append([]Gate(nil), r.gates...)
}

func collectAll(entries []regEntry) *Snapshot {
	s := &Snapshot{index: map[string]int{}}
	for _, e := range entries {
		e.c.CollectMetrics(&Emitter{snap: s, group: e.group})
	}
	return s
}

// Kind discriminates snapshot values.
type Kind int8

// Snapshot value kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindFloat
)

// Value is one collected metric.
type Value struct {
	Kind    Kind
	Counter uint64
	Gauge   int64
	Hist    HistogramSummary
	Float   float64
}

// Metric is one named value inside a snapshot group.
type Metric struct {
	Group string
	Name  string
	Value Value

	// hist retains the pooled histogram so later same-named emissions can
	// merge into it before re-summarizing.
	hist *Histogram
}

// Snapshot is an ordered, merged view of every registered metric.
type Snapshot struct {
	metrics []Metric
	index   map[string]int // "group.name" -> metrics index
}

// Emitter receives metrics from one collector during a snapshot.
type Emitter struct {
	snap  *Snapshot
	group string
}

func (e *Emitter) upsert(name string, v Value, mergeFn func(*Value, Value)) {
	key := e.group + "." + name
	if i, ok := e.snap.index[key]; ok {
		have := &e.snap.metrics[i].Value
		if have.Kind != v.Kind {
			panic(fmt.Sprintf("metrics: %s emitted as both kind %d and %d", key, have.Kind, v.Kind))
		}
		mergeFn(have, v)
		return
	}
	e.snap.index[key] = len(e.snap.metrics)
	e.snap.metrics = append(e.snap.metrics, Metric{Group: e.group, Name: name, Value: v})
}

// Counter emits a counter; same-named counters in the group sum.
func (e *Emitter) Counter(name string, v uint64) {
	e.upsert(name, Value{Kind: KindCounter, Counter: v},
		func(have *Value, v Value) { have.Counter += v.Counter })
}

// Gauge emits a gauge; same-named gauges in the group keep the maximum
// (the aggregation that makes sense for high-water marks and occupancies).
func (e *Emitter) Gauge(name string, v int64) {
	e.upsert(name, Value{Kind: KindGauge, Gauge: v},
		func(have *Value, v Value) {
			if v.Gauge > have.Gauge {
				have.Gauge = v.Gauge
			}
		})
}

// Float emits a floating-point reading; same-named floats in the group sum.
func (e *Emitter) Float(name string, v float64) {
	e.upsert(name, Value{Kind: KindFloat, Float: v},
		func(have *Value, v Value) { have.Float += v.Float })
}

// Histogram emits a histogram summary; same-named histograms in the group
// pool (bucket-merged before summarizing, so quantiles reflect the union).
func (e *Emitter) Histogram(name string, h *Histogram) {
	key := e.group + "." + name
	if i, ok := e.snap.index[key]; ok {
		have := &e.snap.metrics[i]
		merged := have.hist
		if merged == nil {
			panic(fmt.Sprintf("metrics: %s emitted as both histogram and scalar", key))
		}
		merged.merge(h)
		have.Value.Hist = merged.Summary()
		return
	}
	pooled := &Histogram{}
	pooled.merge(h)
	e.snap.index[key] = len(e.snap.metrics)
	e.snap.metrics = append(e.snap.metrics, Metric{
		Group: e.group, Name: name,
		Value: Value{Kind: KindHistogram, Hist: pooled.Summary()},
		hist:  pooled,
	})
}

// Get returns the metric group.name, if present.
func (s *Snapshot) Get(group, name string) (Value, bool) {
	i, ok := s.index[group+"."+name]
	if !ok {
		return Value{}, false
	}
	return s.metrics[i].Value, true
}

// Counter returns the named counter's value (zero if absent).
func (s *Snapshot) Counter(group, name string) uint64 {
	v, _ := s.Get(group, name)
	return v.Counter
}

// Gauge returns the named gauge's value (zero if absent).
func (s *Snapshot) Gauge(group, name string) int64 {
	v, _ := s.Get(group, name)
	return v.Gauge
}

// Metrics returns every metric in deterministic snapshot order.
func (s *Snapshot) Metrics() []Metric { return s.metrics }

// MarshalJSON serializes the snapshot as one object per group, groups in
// registration order and metrics in emission order — deterministically.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	groupOrder := []string{}
	byGroup := map[string][]Metric{}
	for _, m := range s.metrics {
		if _, ok := byGroup[m.Group]; !ok {
			groupOrder = append(groupOrder, m.Group)
		}
		byGroup[m.Group] = append(byGroup[m.Group], m)
	}
	for gi, g := range groupOrder {
		if gi > 0 {
			b.WriteByte(',')
		}
		gname, _ := json.Marshal(g)
		b.Write(gname)
		b.WriteByte(':')
		b.WriteByte('{')
		for mi, m := range byGroup[g] {
			if mi > 0 {
				b.WriteByte(',')
			}
			mname, _ := json.Marshal(m.Name)
			b.Write(mname)
			b.WriteByte(':')
			var payload []byte
			var err error
			switch m.Value.Kind {
			case KindCounter:
				payload, err = json.Marshal(m.Value.Counter)
			case KindGauge:
				payload, err = json.Marshal(m.Value.Gauge)
			case KindFloat:
				payload, err = json.Marshal(roundFinite(m.Value.Float))
			case KindHistogram:
				h := m.Value.Hist
				h.Mean = roundFinite(h.Mean)
				h.P50 = roundFinite(h.P50)
				h.P99 = roundFinite(h.P99)
				payload, err = json.Marshal(h)
			}
			if err != nil {
				return nil, err
			}
			b.Write(payload)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// roundFinite makes floats JSON-safe and snapshot-diff-friendly.
func roundFinite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// Names returns "group.name" for every metric, sorted — convenient for
// asserting schema coverage in tests.
func (s *Snapshot) Names() []string {
	out := make([]string, 0, len(s.metrics))
	for _, m := range s.metrics {
		out = append(out, m.Group+"."+m.Name)
	}
	sort.Strings(out)
	return out
}

package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
)

// Sampler streams interval metrics as JSONL: one row per sampled boundary,
// each row holding the SIGNED change in every counter (and histogram sample
// count) since the previous row, plus the instantaneous value of every gauge.
// Signed deltas are deliberate: under Time Warp a rollback restores smaller
// counter values mid-run, so an interval can legitimately go negative; the
// telescoping sum over all rows still equals the final quiescent snapshot
// exactly.
//
// Two drive modes cover the two engine shapes:
//
//   - InstallKernel schedules a recurring kernel event, so single-kernel
//     runs (a one-LP PDES system included) sample deterministically at exact
//     sim-time boundaries, on the kernel's own goroutine.
//   - Observe is fed committed-time readings (GVT for Time Warp, min kernel
//     time for conservative PDES) by the caller's wall-clock poller — a
//     multi-LP System.Run's monitor. A sampler event inside an optimistic
//     kernel would be rolled back and re-fired, duplicating rows; a committed
//     reading can never observe speculation that will be undone. Rows land
//     at or after each boundary, stamped with the committed time observed.
//
// Close emits one final row so the telescoping-sum property holds however
// the run ended.
type Sampler struct {
	reg      *metrics.Registry
	w        io.Writer
	interval des.Time
	tag      string

	mu   sync.Mutex
	prev *metrics.Snapshot
	rows int
	err  error

	seen int64 // index of the last interval boundary Observe sampled past
}

// NewSampler returns a sampler emitting rows to w every interval of sim time.
// Returns nil (a safe no-op receiver) if interval <= 0.
func NewSampler(reg *metrics.Registry, w io.Writer, interval des.Time) *Sampler {
	if reg == nil || w == nil || interval <= 0 {
		return nil
	}
	return &Sampler{reg: reg, w: w, interval: interval}
}

// SetTag adds a "tag" field to every subsequent row, distinguishing phases of
// a multi-run process (e.g. one tag per incast fan-in).
func (s *Sampler) SetTag(tag string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tag = tag
	s.mu.Unlock()
}

// Err returns the first write error, if any.
func (s *Sampler) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Sample takes a registry snapshot and writes one row stamped at sim time
// now. Safe from any goroutine.
func (s *Sampler) Sample(now des.Time) {
	s.sample(now, false)
}

func (s *Sampler) sample(now des.Time, final bool) {
	if s == nil {
		return
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	row := s.formatRow(now, snap, final)
	if _, err := io.WriteString(s.w, row); err != nil && s.err == nil {
		s.err = err
	}
	s.prev = snap
	s.rows++
}

// formatRow renders one JSONL line. Caller holds s.mu.
func (s *Sampler) formatRow(now des.Time, snap *metrics.Snapshot, final bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"t_s":%g,"row":%d`, now.Seconds(), s.rows+1)
	if s.tag != "" {
		b.WriteString(`,"tag":`)
		b.WriteString(quote(s.tag))
	}
	if final {
		b.WriteString(`,"final":true`)
	}
	var counters, gauges, floats, histCounts, hists []string
	for _, m := range snap.Metrics() {
		key := quote(m.Group + "." + m.Name)
		switch m.Value.Kind {
		case metrics.KindCounter:
			var base uint64
			if s.prev != nil {
				pv, _ := s.prev.Get(m.Group, m.Name)
				base = pv.Counter
			}
			// Two's-complement subtraction gives the correct signed delta
			// even when the counter shrank (Time Warp rollback).
			counters = append(counters, key+":"+strconv.FormatInt(int64(m.Value.Counter-base), 10))
		case metrics.KindGauge:
			gauges = append(gauges, key+":"+strconv.FormatInt(m.Value.Gauge, 10))
		case metrics.KindFloat:
			var base float64
			if s.prev != nil {
				pv, _ := s.prev.Get(m.Group, m.Name)
				base = pv.Float
			}
			floats = append(floats, key+":"+strconv.FormatFloat(m.Value.Float-base, 'g', -1, 64))
		case metrics.KindHistogram:
			var base metrics.HistogramSummary
			if s.prev != nil {
				pv, _ := s.prev.Get(m.Group, m.Name)
				base = pv.Hist
			}
			h := m.Value.Hist
			histCounts = append(histCounts, key+":"+strconv.FormatInt(int64(h.Count-base.Count), 10))
			if h.Count == 0 {
				break
			}
			// Quantiles are cumulative (a log2-bucketed histogram cannot be
			// re-quantiled over a window), but int_mean is the mean of just
			// this interval's samples — reconstructed from the sum deltas —
			// which is what makes tail-latency DEGRADATION during an outage
			// window visible row by row. Negative interval counts (Time Warp
			// rollback shrank the histogram) suppress int_mean for the row.
			f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
			fields := `{"p50":` + f(h.P50) + `,"p99":` + f(h.P99) + `,"max":` + strconv.FormatUint(h.Max, 10)
			if dc := int64(h.Count - base.Count); dc > 0 {
				dsum := h.Mean*float64(h.Count) - base.Mean*float64(base.Count)
				fields += `,"int_mean":` + f(dsum/float64(dc))
			}
			hists = append(hists, key+":"+fields+"}")
		}
	}
	writeGroup := func(name string, kv []string) {
		if len(kv) == 0 {
			return
		}
		b.WriteString(`,"` + name + `":{`)
		b.WriteString(strings.Join(kv, ","))
		b.WriteString("}")
	}
	writeGroup("counters", counters)
	writeGroup("gauges", gauges)
	writeGroup("floats", floats)
	writeGroup("hist_counts", histCounts)
	writeGroup("hists", hists)
	b.WriteString("}\n")
	return b.String()
}

// InstallKernel schedules the sampler as a recurring kernel event up to end:
// the deterministic drive mode for single-kernel runs. Must be called before
// the run starts, from the kernel's owning goroutine.
func (s *Sampler) InstallKernel(k *des.Kernel, end des.Time) {
	if s == nil {
		return
	}
	var tick func()
	tick = func() {
		s.Sample(k.Now())
		if k.Now()+s.interval <= end {
			k.Schedule(s.interval, tick)
		}
	}
	if s.interval <= end {
		k.Schedule(s.interval, tick)
	}
}

// Observe samples when now — a committed sim-time reading — has crossed the
// next interval boundary, skipping boundaries it jumped over: one row per
// observation, stamped with the time actually seen. Call it from one
// goroutine, and Close only after the last Observe returns.
func (s *Sampler) Observe(now des.Time) {
	if s == nil || int64(now/s.interval) <= s.seen {
		return
	}
	s.seen = int64(now / s.interval)
	s.Sample(now)
}

// Close writes the final row stamped at now, guaranteeing the rows telescope
// to the end-of-run snapshot. It returns the first write error encountered.
func (s *Sampler) Close(now des.Time) error {
	if s == nil {
		return nil
	}
	s.sample(now, true)
	return s.Err()
}

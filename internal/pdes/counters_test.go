package pdes

import (
	"regexp"
	"sync"
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
)

// pdesGroup is the pdes registry group of a 2-LP network, in emission order.
// Names and order are part of every -metrics JSON and simd reply: a rename or
// a reorder must fail here first.
var pdesGroup = []struct {
	name string
	kind metrics.Kind
}{
	{"lps", metrics.KindGauge},
	{"gvt_advances", metrics.KindCounter},
	{"null_messages", metrics.KindCounter},
	{"barriers", metrics.KindCounter},
	{"cross_lp_packets", metrics.KindCounter},
	{"causality_violations", metrics.KindCounter},
	{"eit_stalls", metrics.KindCounter},
	{"eit_parks", metrics.KindCounter},
	{"parked_arrivals", metrics.KindCounter},
	{"post_horizon_drops", metrics.KindCounter},
	{"rollbacks", metrics.KindCounter},
	{"anti_messages", metrics.KindCounter},
	{"rolled_back_events", metrics.KindCounter},
	{"checkpoints", metrics.KindCounter},
	{"lazy_cancel_saved", metrics.KindCounter},
	{"quiescent_sends", metrics.KindCounter},
	{"inbox_high_water", metrics.KindGauge},
	{"max_horizon_ns", metrics.KindGauge},
	{"cut_edges", metrics.KindGauge},
	{"active_channels", metrics.KindGauge},
	{"lp_load_imbalance", metrics.KindFloat},
	{"owned_devices_lp0", metrics.KindGauge},
	{"owned_devices", metrics.KindGauge},
	{"owned_devices_lp1", metrics.KindGauge},
}

// TestCounterTable pins the counter table: its names, the registry group it
// feeds, and that Stats, CollectMetrics and Stats.Sub agree with one another.
// A reader goroutine checks, mid-run, that no per-LP counter sum ever falls
// (Time Warp never rolls its machinery counters back).
func TestCounterTable(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z]+(_[a-z]+)*$`)
	seen := map[string]Counter{}
	for c := range nStats {
		name := c.String()
		if !snake.MatchString(name) {
			t.Errorf("counter %d name %q is not snake_case", c, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
	}

	for _, algo := range []SyncAlgo{NullMessages, Barrier, TimeWarp} {
		t.Run(algo.String(), func(t *testing.T) {
			dur := des.Millisecond
			net := telemetryWorkload(t, 2, dur, WithSyncAlgo(algo), withGVTInterval(50*time.Microsecond))
			reg := metrics.NewRegistry()
			net.RegisterMetrics(reg)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var prev Stats
				for {
					select {
					case <-stop:
						return
					default:
					}
					reg.Snapshot()
					st := net.Sys.Stats()
					for c := range nCounters {
						if st[c] < prev[c] {
							t.Errorf("%v fell mid-run: %d then %d", c, prev[c], st[c])
						}
					}
					prev = st
				}
			}()
			if err := net.Sys.Run(dur); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			st := net.Sys.Stats()
			snap := reg.Snapshot()
			i := 0
			for _, m := range snap.Metrics() {
				if m.Group != "pdes" {
					continue
				}
				if i >= len(pdesGroup) || m.Name != pdesGroup[i].name || m.Value.Kind != pdesGroup[i].kind {
					t.Fatalf("pdes metric %d is %q (kind %d); want the hard-coded list %v", i, m.Name, m.Value.Kind, pdesGroup)
				}
				i++
			}
			if i != len(pdesGroup) {
				t.Fatalf("pdes group has %d metrics, want %d", i, len(pdesGroup))
			}
			for c := range nCounters {
				if v := snap.Counter("pdes", c.String()); v != st[c] {
					t.Errorf("%v: CollectMetrics %d, Stats %d", c, v, st[c])
				}
			}
			if v := snap.Counter("pdes", GVTAdvances.String()); v != st[GVTAdvances] {
				t.Errorf("gvt_advances: CollectMetrics %d, Stats %d", v, st[GVTAdvances])
			}
			if v := snap.Counter("des", "events_executed"); v != st[Events] {
				t.Errorf("events: des.events_executed %d, Stats %d", v, st[Events])
			}
			if st[Events] == 0 || st[CrossPkts] == 0 {
				t.Errorf("run did no cross-LP work: %v", st)
			}

			if d := st.Sub(st); d != (Stats{}) {
				t.Errorf("s.Sub(s) = %v, want zero", d)
			}
			if d := st.Sub(Stats{}); d != st {
				t.Errorf("s.Sub(Stats{}) = %v, want %v", d, st)
			}
		})
	}
}

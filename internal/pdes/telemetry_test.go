package pdes

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/obs"
	"approxsim/internal/topology"
)

// telemetryWorkload builds the standard small leaf-spine with a short Poisson
// workload scheduled over dur.
func telemetryWorkload(t *testing.T, lps int, dur des.Time, opts ...Option) *Network {
	t.Helper()
	cfg := topology.DefaultLeafSpineConfig(4)
	specs, err := poissonSpecs(cfg, 0.4, dur, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("workload generated no flows")
	}
	net, err := Build(cfg, lps, specs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSnapshotConcurrentWithRun is the mid-run safety contract under the race
// detector: a goroutine hammers Registry.Snapshot and System.Stats while the
// engines run. Any non-atomic counter access anywhere in the collection path
// fails the -race CI step.
func TestSnapshotConcurrentWithRun(t *testing.T) {
	for _, algo := range []SyncAlgo{NullMessages, Barrier, TimeWarp} {
		t.Run(algo.String(), func(t *testing.T) {
			dur := des.Millisecond
			net := telemetryWorkload(t, 2, dur,
				WithSyncAlgo(algo), withGVTInterval(50*time.Microsecond))
			reg := metrics.NewRegistry()
			net.RegisterMetrics(reg)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				snaps := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					reg.Snapshot()
					net.Sys.Stats()
					snaps++
				}
			}()
			if err := net.Sys.Run(dur); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
			if st := net.Sys.Stats(); st[Violations] != 0 {
				t.Errorf("%v: %d causality violations", algo, st[Violations])
			}
		})
	}
}

// samplerRow is the decoded shape of one JSONL time-series row.
type samplerRow struct {
	TS       float64                       `json:"t_s"`
	Row      int                           `json:"row"`
	Final    bool                          `json:"final"`
	Counters map[string]int64              `json:"counters"`
	Hists    map[string]map[string]float64 `json:"hists"`
}

func decodeRows(t *testing.T, data []byte) []samplerRow {
	t.Helper()
	var rows []samplerRow
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var r samplerRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL row %q: %v", sc.Text(), err)
		}
		rows = append(rows, r)
	}
	return rows
}

// TestTimeWarpTelemetryEndToEnd is the acceptance scenario: an optimistic run
// with the Run-managed committed-time sampler and full tracing produces (a) a
// JSONL time series whose signed counter deltas telescope to the final
// snapshot even though rollbacks shrank counters mid-run, and (b) a trace
// that passes the Chrome trace-event schema check.
func TestTimeWarpTelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		// The -race -short CI step gets its mid-run coverage from
		// TestSnapshotConcurrentWithRun; a fully traced optimistic run under
		// the race detector is minutes of wall time.
		t.Skip("traced time warp run is slow")
	}
	reg := metrics.NewRegistry()
	var series bytes.Buffer
	sampler := obs.NewSampler(reg, &series, 100*des.Microsecond)
	tracer := obs.New(obs.Options{Trace: true})
	dur := des.Millisecond
	// A modest speculation window keeps the traced run out of the rollback-
	// thrash regime (tracing lengthens the speculative critical path, and
	// thrash wastes wall time re-tracing undone work).
	net := telemetryWorkload(t, 2, dur,
		WithSyncAlgo(TimeWarp),
		withGVTInterval(50*time.Microsecond),
		withTimeWindow(30*des.Microsecond),
		WithObs(tracer),
		WithSampler(sampler),
		withSamplerPoll(100*time.Microsecond))
	net.RegisterMetrics(reg)
	if err := net.Sys.Run(dur); err != nil {
		t.Fatal(err)
	}

	rows := decodeRows(t, series.Bytes())
	if len(rows) < 2 {
		t.Fatalf("sampler produced %d rows, want >= 2", len(rows))
	}
	if last := rows[len(rows)-1]; !last.Final {
		t.Error("last row is not marked final")
	}
	var sum int64
	for _, r := range rows {
		sum += r.Counters["des.events_executed"]
	}
	final := reg.Snapshot()
	v, ok := final.Get("des", "events_executed")
	if !ok {
		t.Fatal("final snapshot is missing des.events_executed")
	}
	if uint64(sum) != v.Counter {
		t.Errorf("interval deltas sum to %d executed events, final snapshot has %d",
			sum, v.Counter)
	}

	var trace bytes.Buffer
	if err := tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(trace.Bytes()); err != nil {
		t.Errorf("trace fails Chrome schema validation: %v", err)
	}
	for _, want := range []string{`"tx"`, `"checkpoint"`, `"gvt"`, `"process_name"`} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("trace is missing %s events", want)
		}
	}
}

// TestStallWatchdogDumpsFlightRecorder wedges a run on purpose — one kernel
// event that sleeps far past the stall timeout — and checks the deadlock
// watchdog dumps the flight recorder (and only dumps; the run itself is left
// to finish).
func TestStallWatchdogDumpsFlightRecorder(t *testing.T) {
	var dump bytes.Buffer
	tracer := obs.New(obs.Options{FlightRecorder: 64, DumpWriter: &dump})
	s := NewSystem(1, WithObs(tracer), withStallTimeout(20*time.Millisecond))
	k := s.LP(0).Kernel()
	for i := 0; i < 8; i++ {
		k.Schedule(des.Microsecond*des.Time(i+1), func() {})
	}
	k.Schedule(10*des.Microsecond, func() { time.Sleep(150 * time.Millisecond) })
	if err := s.Run(des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := tracer.LastDumpReason(); got != "deadlock_suspected" {
		t.Fatalf("dump reason = %q, want deadlock_suspected", got)
	}
	if err := obs.ValidateChromeTrace(dump.Bytes()); err != nil {
		t.Errorf("dump fails Chrome schema validation: %v", err)
	}
	if !strings.Contains(dump.String(), "flight_recorder_dump: deadlock_suspected") {
		t.Error("dump is missing the trigger marker")
	}
}

// TestTimeWarpAbortDumpContainsStraggler forces a rollback-budget abort and
// checks the automatic flight-recorder dump: written once, named after the
// trigger, valid Chrome trace JSON, and containing the straggler marker that
// caused the thrash.
func TestTimeWarpAbortDumpContainsStraggler(t *testing.T) {
	var dump bytes.Buffer
	tracer := obs.New(obs.Options{FlightRecorder: 4096, DumpWriter: &dump})
	s, _ := stragglerScenario(t, TimeWarp, 3*time.Millisecond,
		WithMaxRollbacks(1), WithObs(tracer))
	if err := s.Run(des.Millisecond); err == nil {
		t.Fatal("run with rollback budget 1 returned nil error")
	}
	if got := tracer.LastDumpReason(); got != "rollback_budget_exceeded" {
		t.Fatalf("dump reason = %q, want rollback_budget_exceeded", got)
	}
	if dump.Len() == 0 {
		t.Fatal("abort wrote no flight-recorder dump")
	}
	if err := obs.ValidateChromeTrace(dump.Bytes()); err != nil {
		t.Errorf("dump fails Chrome schema validation: %v", err)
	}
	for _, want := range []string{`"straggler"`, `"rollback"`, `flight_recorder_dump: rollback_budget_exceeded`} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("dump is missing %s", want)
		}
	}
}

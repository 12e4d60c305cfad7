package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
)

// All Tracer/Buf methods must be inert on nil receivers: that IS the
// disabled path every subsystem takes when observability is off.
func TestNilTracerAndBufAreInert(t *testing.T) {
	var tr *Tracer
	if tr.TraceEnabled() || tr.FlightRecorderEnabled() {
		t.Fatal("nil tracer reports enabled")
	}
	b := tr.NewBuf(0, "x")
	if b != nil {
		t.Fatal("nil tracer returned non-nil buf")
	}
	if b.Enabled() {
		t.Fatal("nil buf reports enabled")
	}
	b.Emit(Event{Name: "x"})
	b.Record(Event{Name: "x"})
	tr.NameThread(0, 0, "x")
	if KernelHook(b) != nil {
		t.Fatal("nil buf produced a kernel hook")
	}
	if tr.DumpFlightRecorder("why", 0) {
		t.Fatal("nil tracer dumped")
	}
	var s *Sampler
	s.Sample(0)
	s.SetTag("x")
	if err := s.Close(0); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceWriteAndValidate(t *testing.T) {
	tr := New(Options{Trace: true})
	b0 := tr.NewBuf(0, "LP 0")
	b1 := tr.NewBuf(1, "LP 1")
	tr.NameThread(0, 3, "tor[0]")
	b0.Emit(Event{TS: 1500, Dur: 500, Ph: PhSpan, Name: "tx", Cat: "netsim", Tid: 3, K1: "bytes", V1: 1500})
	b0.Emit(Event{TS: 2000, Ph: PhInstant, Name: "drop", Cat: "netsim", Tid: 3})
	b1.Emit(Event{TS: 2500, Ph: PhCounter, Name: "gvt", Cat: "pdes", K1: "gvt_ns", V1: 2500})

	var out bytes.Buffer
	if err := tr.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(out.Bytes()); err != nil {
		t.Fatalf("produced trace fails own validator: %v\n%s", err, out.String())
	}

	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	// 2 process metadata pairs + 1 thread pair + 3 events.
	if len(top.TraceEvents) != 2*2+2+3 {
		t.Fatalf("got %d events:\n%s", len(top.TraceEvents), out.String())
	}
	// Sub-microsecond timestamps keep their fractional part (1500ns = 1.5us).
	if !strings.Contains(out.String(), `"ts":1.500`) {
		t.Errorf("fractional ts lost:\n%s", out.String())
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	bad := []string{
		`{}`, // no traceEvents
		`{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":0,"ts":1}]}`,  // X without dur
		`{"traceEvents":[{"ph":"i","name":"a","pid":0,"tid":0,"ts":1}]}`,  // i without scope
		`{"traceEvents":[{"ph":"Z","name":"a","pid":0,"tid":0,"ts":1}]}`,  // unknown ph
		`{"traceEvents":[{"ph":"C","name":"a","pid":0,"tid":0,"ts":1}]}`,  // C without args
		`{"traceEvents":[{"ph":"i","s":"t","pid":0,"tid":0,"ts":1}]}`,     // missing name
		`{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":0,"dur":1}]}`, // missing ts
	}
	for _, tc := range bad {
		if err := ValidateChromeTrace([]byte(tc)); err == nil {
			t.Errorf("validator accepted %s", tc)
		}
	}
	ok := `{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":0,"ts":1,"dur":2}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("validator rejected valid trace: %v", err)
	}
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	var dump bytes.Buffer
	tr := New(Options{FlightRecorder: 4, DumpWriter: &dump})
	b := tr.NewBuf(0, "LP 0")
	for i := 0; i < 10; i++ {
		b.Record(Event{TS: des.Time(i), Ph: PhInstant, Name: "exec", Cat: "des", K1: "seq", V1: int64(i)})
	}
	b.Emit(Event{TS: 100, Ph: PhInstant, Name: "straggler", Cat: "pdes", K1: "at", V1: 100})

	if !tr.DumpFlightRecorder("rollback budget", 101) {
		t.Fatal("dump refused")
	}
	if err := ValidateChromeTrace(dump.Bytes()); err != nil {
		t.Fatalf("dump fails validator: %v\n%s", err, dump.String())
	}
	out := dump.String()
	// Ring capacity 4: the straggler plus the 3 newest exec records survive;
	// older ones were overwritten.
	if !strings.Contains(out, "straggler") {
		t.Errorf("dump lost the newest event:\n%s", out)
	}
	if !strings.Contains(out, `"seq":7`) || strings.Contains(out, `"seq":5`) {
		t.Errorf("ring retention wrong:\n%s", out)
	}
	if !strings.Contains(out, "flight_recorder_dump: rollback budget") {
		t.Errorf("dump marker missing:\n%s", out)
	}

	// Same reason never dumps twice; a new reason does.
	if tr.DumpFlightRecorder("rollback budget", 102) {
		t.Error("duplicate reason dumped again")
	}
	if !tr.DumpFlightRecorder("deadlock", 103) {
		t.Error("new reason refused")
	}
	if tr.LastDumpReason() != "deadlock" {
		t.Errorf("LastDumpReason = %q", tr.LastDumpReason())
	}
}

func TestKernelHookFeedsRing(t *testing.T) {
	var dump bytes.Buffer
	tr := New(Options{FlightRecorder: 8, DumpWriter: &dump})
	b := tr.NewBuf(0, "kernel")
	k := des.NewKernel()
	k.SetHook(KernelHook(b))
	for i := 0; i < 5; i++ {
		k.Schedule(des.Time(i+1), func() {})
	}
	k.RunAll()
	if b.ring.snapshot()[0].Name != "exec" {
		t.Fatal("hook did not record")
	}
	if n := len(b.ring.snapshot()); n != 5 {
		t.Fatalf("recorded %d events, want 5", n)
	}
	// Hook records bypass the full trace.
	if len(b.events) != 0 {
		t.Fatalf("kernel records leaked into full trace: %d", len(b.events))
	}
}

func TestSamplerKernelDriven(t *testing.T) {
	reg := metrics.NewRegistry()
	k := des.NewKernel()
	reg.Register("des", k)

	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	s := NewSampler(reg, w, des.Millisecond)
	s.InstallKernel(k, 5*des.Millisecond)

	// A recurring 100us workload event.
	var tick func()
	tick = func() {
		if k.Now() < 5*des.Millisecond {
			k.Schedule(100*des.Microsecond, tick)
		}
	}
	k.Schedule(100*des.Microsecond, tick)
	k.Run(5 * des.Millisecond)
	if err := s.Close(k.Now()); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	rows := parseRows(t, out.Bytes())
	if len(rows) < 3 {
		t.Fatalf("want >= 3 rows, got %d:\n%s", len(rows), out.String())
	}
	// Telescoping: summed signed deltas == final quiescent snapshot value.
	var sum int64
	for _, r := range rows {
		sum += int64(r.Counters["des.events_executed"])
	}
	final := reg.Snapshot().Counter("des", "events_executed")
	if uint64(sum) != final {
		t.Errorf("deltas sum to %d, final snapshot %d", sum, final)
	}
	last := rows[len(rows)-1]
	if !last.Final {
		t.Errorf("last row not marked final: %+v", last)
	}
}

type samplerRow struct {
	TS       float64            `json:"t_s"`
	Row      int                `json:"row"`
	Tag      string             `json:"tag"`
	Final    bool               `json:"final"`
	Counters map[string]float64 `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

func parseRows(t *testing.T, data []byte) []samplerRow {
	t.Helper()
	var rows []samplerRow
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r samplerRow
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad JSONL row %q: %v", line, err)
		}
		rows = append(rows, r)
	}
	return rows
}

// Signed deltas: a counter that shrinks between rows (rollback) must emit a
// negative delta, and the telescoping sum must still match the final value.
func TestSamplerSignedDeltas(t *testing.T) {
	var c metrics.Counter
	reg := metrics.NewRegistry()
	reg.RegisterFunc("g", func(e *metrics.Emitter) { e.Counter("c", c.Value()) })

	var out bytes.Buffer
	s := NewSampler(reg, &out, des.Millisecond)
	c.Add(100)
	s.Sample(1 * des.Millisecond)
	c.Store(40) // rollback
	s.Sample(2 * des.Millisecond)
	c.Add(5)
	if err := s.Close(3 * des.Millisecond); err != nil {
		t.Fatal(err)
	}

	rows := parseRows(t, out.Bytes())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if d := rows[1].Counters["g.c"]; d != -60 {
		t.Errorf("shrink delta = %v, want -60", d)
	}
	var sum int64
	for _, r := range rows {
		sum += int64(r.Counters["g.c"])
	}
	if uint64(sum) != c.Value() {
		t.Errorf("telescoped %d, final %d", sum, c.Value())
	}
}

// TestSamplerObserve feeds Observe a fake committed clock: a reading short of
// the next interval boundary writes nothing, a reading that jumps several
// boundaries writes one row stamped with the time actually seen, and the
// counter deltas telescope to the final snapshot.
func TestSamplerObserve(t *testing.T) {
	var c metrics.Counter
	reg := metrics.NewRegistry()
	reg.RegisterFunc("g", func(e *metrics.Emitter) { e.Counter("c", c.Value()) })

	var out bytes.Buffer
	s := NewSampler(reg, &out, des.Millisecond)
	s.SetTag("poll")
	for _, now := range []des.Time{500 * des.Microsecond, des.Millisecond, 1500 * des.Microsecond, 3700 * des.Microsecond, 3900 * des.Microsecond} {
		c.Add(10)
		s.Observe(now)
	}
	if err := s.Close(4 * des.Millisecond); err != nil {
		t.Fatal(err)
	}

	rows := parseRows(t, out.Bytes())
	if len(rows) < 2 {
		t.Fatalf("want >= 2 rows, got %d", len(rows))
	}
	var stamps []float64
	var sum int64
	for _, r := range rows {
		stamps = append(stamps, r.TS)
		sum += int64(r.Counters["g.c"])
		if r.Tag != "poll" {
			t.Errorf("row missing tag: %+v", r)
		}
	}
	// 1 ms crosses the first boundary; 3.7 ms skips the 2 and 3 ms ones and
	// is stamped as seen; the final row is Close's.
	if want := []float64{0.001, 0.0037, 0.004}; fmt.Sprint(stamps) != fmt.Sprint(want) {
		t.Errorf("row stamps %v, want %v", stamps, want)
	}
	if sum != 50 {
		t.Errorf("telescoped %d, want 50", sum)
	}
}

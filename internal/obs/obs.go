// Package obs is the simulation-time observability layer: structured event
// tracing in Chrome trace-event JSON (openable directly in Perfetto), a
// bounded flight recorder of recent events per logical process, and an
// interval sampler that streams metrics-registry deltas as JSONL time series.
//
// The design splits responsibilities by goroutine:
//
//   - A Tracer is the shared, process-wide sink. It is created once per run
//     and handed to every subsystem. A nil *Tracer is fully inert — every
//     method is nil-safe — so the disabled path costs call sites one pointer
//     check.
//   - A Buf is a per-goroutine emission handle (one per PDES LP). The owning goroutine appends trace events without
//     locks; the flight-recorder ring inside it is mutex-guarded because
//     dumps are triggered cross-goroutine (LP 3's causality violation dumps
//     LP 5's recent history too).
//   - Timestamps are virtual. Sim-time nanoseconds map to Chrome trace
//     microseconds (ts = ns/1000), LPs map to trace processes, devices map
//     to threads, so Perfetto's track view reads as "what every switch was
//     doing in simulated time".
//
// Under optimistic (Time Warp) synchronization the trace deliberately shows
// speculation: device spans appear when they execute, and rollbacks appear as
// instants on the owning LP's control track. A rollback storm is therefore
// visible as dense span clusters bracketed by rollback markers — see
// DESIGN.md's worked example.
package obs

import (
	"fmt"
	"io"
	"sync"

	"approxsim/internal/des"
)

// Phase bytes, matching the Chrome trace-event "ph" field.
const (
	PhSpan     byte = 'X' // complete span: TS + Dur
	PhInstant  byte = 'i' // instant: TS only
	PhCounter  byte = 'C' // counter sample: K1/V1 (and K2/V2) become series
	PhMetadata byte = 'M' // synthesized by the writer for track names
)

// Event is one trace record. It is a fixed-size value — no pointers beyond
// string headers, and call sites use static string constants — so recording
// into the flight-recorder ring allocates nothing.
type Event struct {
	TS   des.Time // virtual start time
	Dur  des.Time // span length (PhSpan only)
	Ph   byte
	Name string // what happened ("tx", "drop", "rollback", ...)
	Cat  string // subsystem ("netsim", "tcp", "pdes", "des")
	Pid  int32  // trace process: LP id (filled from the Buf)
	Tid  int32  // trace thread: device/track id within the LP
	K1   string // optional arg key ("bytes", "flow", ...)
	V1   int64
	K2   string
	V2   int64
}

// Options configures a Tracer.
type Options struct {
	// Trace enables full-trace collection for WriteChromeTrace. Off, Bufs
	// only feed their flight-recorder rings (if any).
	Trace bool
	// FlightRecorder is the per-Buf ring capacity in events; 0 disables the
	// flight recorder.
	FlightRecorder int
	// DumpWriter receives flight-recorder dumps (Chrome trace JSON, one per
	// distinct trigger reason). Nil suppresses dumping.
	DumpWriter io.Writer
}

// Tracer is the shared trace sink for one run. All methods are safe on a nil
// receiver (the disabled state) and safe for concurrent use.
type Tracer struct {
	opts Options

	mu       sync.Mutex
	bufs     []*Buf
	procs    map[int32]string
	threads  map[int64]string // pid<<32 | tid -> name
	procOrd  []int32
	thrOrd   []int64
	dumped   map[string]bool
	lastDump string
}

// New returns a Tracer with the given options.
func New(opts Options) *Tracer {
	return &Tracer{
		opts:    opts,
		procs:   map[int32]string{},
		threads: map[int64]string{},
		dumped:  map[string]bool{},
	}
}

// TraceEnabled reports whether full-trace collection is on.
func (t *Tracer) TraceEnabled() bool { return t != nil && t.opts.Trace }

// FlightRecorderEnabled reports whether Bufs carry flight-recorder rings.
func (t *Tracer) FlightRecorderEnabled() bool { return t != nil && t.opts.FlightRecorder > 0 }

// NewBuf registers an emission handle for one goroutine (trace process pid,
// e.g. one PDES LP). name labels the process track in Perfetto.
func (t *Tracer) NewBuf(pid int32, name string) *Buf {
	if t == nil {
		return nil
	}
	b := &Buf{tracer: t, pid: pid, collect: t.opts.Trace}
	if t.opts.FlightRecorder > 0 {
		b.ring = newRing(t.opts.FlightRecorder)
	}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	if _, ok := t.procs[pid]; !ok {
		t.procs[pid] = name
		t.procOrd = append(t.procOrd, pid)
	}
	t.mu.Unlock()
	return b
}

// NameThread labels a thread track (a device) within process pid.
func (t *Tracer) NameThread(pid, tid int32, name string) {
	if t == nil {
		return
	}
	key := int64(pid)<<32 | int64(uint32(tid))
	t.mu.Lock()
	if _, ok := t.threads[key]; !ok {
		t.threads[key] = name
		t.thrOrd = append(t.thrOrd, key)
	}
	t.mu.Unlock()
}

// LastDumpReason returns the reason of the most recent flight-recorder dump
// ("" if none), for tests and run summaries.
func (t *Tracer) LastDumpReason() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastDump
}

// Buf is a per-goroutine emission handle. Emit and Record are called only by
// the owning goroutine; the ring inside is separately locked so cross-
// goroutine dumps can read it mid-run. A nil *Buf discards everything.
type Buf struct {
	tracer  *Tracer
	pid     int32
	collect bool
	events  []Event
	ring    *ring
}

// Enabled reports whether emitting to b can have any effect — use it to skip
// building Event values on hot paths.
func (b *Buf) Enabled() bool { return b != nil && (b.collect || b.ring != nil) }

// Pid returns the trace-process id this Buf emits under.
func (b *Buf) Pid() int32 {
	if b == nil {
		return 0
	}
	return b.pid
}

// Emit appends ev to the full trace (when enabled) and to the flight-recorder
// ring (when enabled). ev.Pid is stamped from the Buf.
func (b *Buf) Emit(ev Event) {
	if b == nil {
		return
	}
	ev.Pid = b.pid
	if b.collect {
		b.events = append(b.events, ev)
	}
	if b.ring != nil {
		b.ring.record(ev)
	}
}

// Record appends ev to the flight-recorder ring only, bypassing the full
// trace. The kernel hook uses this: per-event kernel records would bloat a
// full trace but are exactly what a post-mortem wants.
func (b *Buf) Record(ev Event) {
	if b == nil || b.ring == nil {
		return
	}
	ev.Pid = b.pid
	b.ring.record(ev)
}

// kernelHook adapts a Buf to des.Hook, feeding the flight recorder one
// record per executed kernel event.
type kernelHook struct{ buf *Buf }

func (h kernelHook) OnEvent(at des.Time, seq uint64) {
	h.buf.Record(Event{TS: at, Ph: PhInstant, Name: "exec", Cat: "des", K1: "seq", V1: int64(seq)})
}

// KernelHook returns a des.Hook that records each executed event into b's
// flight-recorder ring, or nil when b has no ring (so callers can pass the
// result straight to Kernel.SetHook and keep the true-zero-cost path).
func KernelHook(b *Buf) des.Hook {
	if b == nil || b.ring == nil {
		return nil
	}
	return kernelHook{buf: b}
}

// procName returns a default process label.
func procName(pid int32) string { return fmt.Sprintf("LP %d", pid) }

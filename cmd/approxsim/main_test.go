package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/obs"
	"approxsim/internal/scenario"
)

// syncBuffer is a bytes.Buffer safe for the reporter goroutine and the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestProgressEveryMode: -progress reports from the run's progress gauges in
// every mode, ending with the run's final committed time and event count.
func TestProgressEveryMode(t *testing.T) {
	for _, sp := range []scenario.Spec{
		{Mode: "full", Workload: scenario.Workload{Load: 0.3}, Seed: 5, HorizonMS: 1},
		{Mode: "pdes", Topology: scenario.Topology{Racks: 4}, Workload: scenario.Workload{Load: 0.3}, LPs: 2, Seed: 5, HorizonMS: 1},
	} {
		t.Run(sp.Mode, func(t *testing.T) {
			prog := &obs.Progress{}
			var out syncBuffer
			stop := reportProgress(&out, prog, 500*des.Microsecond)
			res, err := scenario.Run(sp, scenario.WithProgress(prog))
			stop()
			if err != nil {
				t.Fatal(err)
			}
			lines := out.lines()
			end := des.Time(res.Perf.SimSeconds * float64(des.Second))
			last := lines[len(lines)-1]
			if !strings.HasPrefix(last, fmt.Sprintf("progress t=%v ", end)) ||
				!strings.HasSuffix(last, fmt.Sprintf(" events=%d", res.Perf.Events)) {
				t.Fatalf("last progress line %q, want t=%v and events=%d", last, end, res.Perf.Events)
			}
		})
	}
}

// TestProgressLinePerBoundary: a line is printed once committed time crosses
// a multiple of the interval, stamped with the time observed.
func TestProgressLinePerBoundary(t *testing.T) {
	prog := &obs.Progress{}
	var out syncBuffer
	stop := reportProgress(&out, prog, des.Millisecond)
	defer stop()
	prog.Attach(func() des.Time { return 2500 * des.Microsecond }, func() uint64 { return 42 })
	want := fmt.Sprintf("progress t=%v ", 2500*des.Microsecond)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if lines := out.lines(); strings.HasPrefix(lines[0], want) && strings.HasSuffix(lines[0], " events=42") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress line for the crossed boundary: %q", out.lines())
		}
	}
}

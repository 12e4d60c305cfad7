package pdes

import (
	"sync"
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
)

// hammer snapshots reg in a loop until the returned stop is called, which
// reports how many snapshots caught the run in progress: the largest LP clock
// past zero and short of end. It returns once the loop is running.
func hammer(reg *metrics.Registry, end des.Time) (stop func() int) {
	quit, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	mid := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			if i == 1 {
				close(started)
			}
			select {
			case <-quit:
				return
			default:
			}
			if t := des.Time(reg.Snapshot().Gauge("des", "virtual_time_ns")); t > 0 && t < end {
				mid++
			}
		}
	}()
	<-started
	return func() int { close(quit); wg.Wait(); return mid }
}

// TestSafepointUnderBackpressure runs two null-message LPs with one-slot
// inboxes, so senders keep blocking on a full inbox, while a goroutine
// snapshots the registry. A collection must reach every LP at a safepoint —
// a sender blocked on a paused receiver included, which the request wakes —
// or the run hangs; under -race, every counter read must happen inside the
// gate. The run must commit the result it commits unobserved.
func TestSafepointUnderBackpressure(t *testing.T) {
	const dur = des.Millisecond / 2
	quiet := telemetryWorkload(t, 2, dur, withInboxCap(1))
	runWithWatchdog(t, 60*time.Second, func() {
		if err := quiet.Sys.Run(dur); err != nil {
			t.Error(err)
		}
	})
	want := metrics.NewRegistry()
	quiet.RegisterMetrics(want)

	net := telemetryWorkload(t, 2, dur, withInboxCap(1))
	reg := metrics.NewRegistry()
	net.RegisterMetrics(reg)
	stop := hammer(reg, dur)
	runWithWatchdog(t, 60*time.Second, func() {
		if err := net.Sys.Run(dur); err != nil {
			t.Error(err)
		}
	})
	if mid := stop(); mid == 0 {
		t.Error("no snapshot caught the run in progress")
	}
	if st := net.Sys.Stats(); st[Violations] != 0 || st[CrossPkts] == 0 {
		t.Errorf("violations %d, cross-LP packets %d", st[Violations], st[CrossPkts])
	}
	if got, want := committedGroups(t, reg), committedGroups(t, want); got != want {
		t.Errorf("observed run committed\n %s\nunobserved\n %s", got, want)
	}
}

package des

import (
	"sync"
	"testing"
)

// The kernel's contract is plain fields for one writer: one goroutine runs
// events, and other goroutines may read only PublishedNow and
// PublishedExecuted, the atomic copies it publishes every publishEvery events
// and whenever a run returns. This test exists for the race detector — a
// reader touching an owner field, or a non-atomic publish, fails
// `go test -race` — and checks that the published values never run backwards
// and end exact.
func TestStatsConcurrentWithRun(t *testing.T) {
	k := NewKernel()

	// A self-perpetuating workload with churn in both directions: schedules,
	// cancels (so events leave mid-heap and are recycled), and nested fan-out
	// (so the heap high-water mark keeps moving).
	var n int
	var tick func()
	tick = func() {
		n++
		if n >= 20000 {
			return
		}
		doomed := k.Schedule(5, func() {})
		k.Schedule(2, tick)
		k.Schedule(3, func() {})
		k.Cancel(doomed)
	}
	k.Schedule(1, tick)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastNow Time
			var lastExec uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				now, exec := k.PublishedNow(), k.PublishedExecuted()
				if now < lastNow || exec < lastExec {
					t.Errorf("published values ran backwards: now %v -> %v, executed %d -> %d",
						lastNow, now, lastExec, exec)
					return
				}
				lastNow, lastExec = now, exec
			}
		}()
	}

	k.RunAll()
	close(stop)
	wg.Wait()

	st := k.Stats()
	if st.HeapHighWater < 1 {
		t.Fatalf("heap high-water = %d, want >= 1", st.HeapHighWater)
	}
	if st.Executed == 0 || st.Canceled == 0 {
		t.Fatalf("workload did not exercise execute+cancel paths: %+v", st)
	}
	if k.PublishedNow() != k.Now() || k.PublishedExecuted() != st.Executed {
		t.Fatalf("after RunAll: published now %v executed %d, want %v and %d",
			k.PublishedNow(), k.PublishedExecuted(), k.Now(), st.Executed)
	}
}

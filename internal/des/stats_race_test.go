package des

import (
	"sync"
	"testing"

	"approxsim/internal/metrics"
)

// The kernel's contract is single-writer atomics: one goroutine runs events
// while any number of observers read Now/Pending/Stats/CollectMetrics. This
// test exists for the race detector — the gauges in particular are plain
// owner fields that readers may only see through their published atomic
// mirrors, so a reader touching an owner field, or a non-atomic publish,
// fails `go test -race`.
func TestStatsConcurrentWithRun(t *testing.T) {
	k := NewKernel()
	reg := metrics.NewRegistry()
	reg.Register("des", k)

	// A self-perpetuating workload with churn in both directions: schedules,
	// cancels (so events leave mid-heap and are recycled), and nested fan-out
	// (so the heap high-water mark keeps moving while readers poll it).
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
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := k.Stats()
				if st.HeapHighWater < 0 {
					t.Error("negative heap high-water")
					return
				}
				_ = k.Now()
				_ = k.Pending()
				_ = reg.Snapshot()
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
}

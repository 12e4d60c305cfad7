package des

import (
	"testing"

	"approxsim/internal/rng"
)

// TestSoakRandomNestedScheduling drives the kernel with a self-expanding
// random event tree and verifies global ordering invariants at scale.
func TestSoakRandomNestedScheduling(t *testing.T) {
	k := NewKernel()
	r := rng.New(2024)
	var last Time
	executed := 0
	violations := 0

	var spawn func(depth int)
	spawn = func(depth int) {
		k.Schedule(Time(r.Intn(10_000)+1), func() {
			if k.Now() < last {
				violations++
			}
			last = k.Now()
			executed++
			if depth > 0 {
				// Each event spawns 0-2 children and sometimes cancels a
				// decoy, mimicking protocol timer churn.
				for i := 0; i < r.Intn(3); i++ {
					spawn(depth - 1)
				}
				decoy := k.Schedule(Time(r.Intn(5_000)+1), func() { executed++ })
				if r.Float64() < 0.5 {
					k.Cancel(decoy)
				}
			}
		})
	}
	for i := 0; i < 100; i++ {
		spawn(6)
	}
	k.RunAll()
	if violations > 0 {
		t.Fatalf("%d time-ordering violations", violations)
	}
	if executed < 500 {
		t.Fatalf("soak only executed %d events; tree did not expand", executed)
	}
	st := k.Stats()
	if st.Executed != uint64(executed) {
		t.Errorf("kernel counted %d executed, test saw %d", st.Executed, executed)
	}
	if st.Scheduled < st.Executed {
		t.Error("scheduled < executed: counter accounting broken")
	}
}

// TestRunResumeAcrossManyHorizons: chopping a run into many horizons must
// execute exactly the same events as one big run.
func TestRunResumeAcrossManyHorizons(t *testing.T) {
	build := func() (*Kernel, *int) {
		k := NewKernel()
		r := rng.New(7)
		count := new(int)
		for i := 0; i < 500; i++ {
			k.Schedule(Time(r.Intn(1_000_000)), func() { *count++ })
		}
		return k, count
	}
	k1, c1 := build()
	k1.RunAll()

	k2, c2 := build()
	for h := Time(0); h <= 1_000_000; h += 37_777 {
		k2.Run(h)
	}
	k2.RunAll()
	if *c1 != *c2 {
		t.Errorf("single run executed %d, chopped run %d", *c1, *c2)
	}
}

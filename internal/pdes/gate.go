package pdes

import (
	"sync"
	"sync/atomic"
)

// The metrics gate: how a registry reads the plain counters of a running
// System (see metrics.Gate).
//
// The kernels, ports and hosts keep their counters in plain fields written by
// the LP goroutine that runs them, so a mid-run reader on another goroutine
// may only look while every LP stands still. System.Hold arranges that: it
// raises a pause request, waits until every LP goroutine has stopped at a
// safepoint (or finished), runs the collection, and releases them. The
// safepoints are the points where an LP is between events:
//
//   - its kernel's safepoint hook, every few hundred events;
//   - LP.wait, on every poll round and before every park;
//   - LP.send's backpressure loop, which the request wakes through lp.wake;
//   - the top of the Time Warp loop, whose take the request wakes through the
//     LP's cond.
//
// A one-LP run executes on the caller's goroutine, which counts as that LP's
// goroutine here. Outside the parallel phase of a Run, Hold collects at once;
// Run's own setup and wrap-up on the caller goroutine hold serial, so neither
// overlaps a collection.
type gate struct {
	// serial is held by a collection for its whole length, and by Run
	// whenever its caller goroutine touches LP state outside the parallel
	// phase (setup, and Time Warp's final drain).
	serial sync.Mutex

	mu      sync.Mutex
	cond    sync.Cond // on mu: LPs released, or one more LP held or gone
	running bool      // between open and close
	n       int       // LP goroutines of the parallel phase
	held    int       // of those, paused at a safepoint
	gone    int       // of those, finished

	// req is the pause request; LPs poll it at their safepoints.
	req atomic.Bool
}

// open hands the LPs to n goroutines and lets collections in, which from now
// on pause those goroutines. The caller holds serial and gives it up here.
func (g *gate) open(n int) {
	g.mu.Lock()
	g.running, g.n, g.held, g.gone = true, n, 0, 0
	g.mu.Unlock()
	g.serial.Unlock()
}

// leave marks one LP goroutine of the parallel phase finished: it reaches no
// further safepoint, and a collection no longer waits for it.
func (g *gate) leave() {
	g.mu.Lock()
	g.gone++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// close ends the parallel phase once every LP goroutine has left. It waits
// for a collection in progress, and returns holding serial.
func (g *gate) close() {
	g.serial.Lock()
	g.mu.Lock()
	g.running = false
	g.mu.Unlock()
}

// hold pauses the calling LP goroutine until the pause request is lifted.
func (g *gate) hold() {
	g.mu.Lock()
	g.held++
	g.cond.Broadcast()
	for g.req.Load() {
		g.cond.Wait()
	}
	g.held--
	g.mu.Unlock()
}

// safepoint pauses the LP while a collection is requested. It is one atomic
// load when none is.
func (lp *LP) safepoint() {
	if lp.sys.gate.req.Load() {
		lp.sys.gate.hold()
	}
}

// Hold implements metrics.Gate: it runs collect while no LP of the system
// executes, pausing the LPs of a Run in progress at their safepoints (see
// gate). pdes.Network.RegisterMetrics installs it. It must not be called from
// an LP goroutine of a running system, which would wait on itself.
func (s *System) Hold(collect func()) {
	g := &s.gate
	g.serial.Lock()
	defer g.serial.Unlock()
	g.mu.Lock()
	if !g.running {
		g.mu.Unlock()
		collect()
		return
	}
	g.req.Store(true)
	g.mu.Unlock()
	s.wakeLPs()
	g.mu.Lock()
	for g.held+g.gone < g.n {
		g.cond.Wait()
	}
	g.mu.Unlock()
	collect()
	g.mu.Lock()
	g.req.Store(false)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wakeLPs gets every blocked LP goroutine to its next safepoint: a token on
// its wake channel ends a park or a send under backpressure, and a broadcast
// on its Time Warp cond ends a take. A token left over is harmless: every
// waiter re-checks its condition after a wake.
func (s *System) wakeLPs() {
	for _, lp := range s.lps {
		if lp.wake != nil {
			select {
			case lp.wake <- struct{}{}:
			default:
			}
		}
		if t := lp.tw; t != nil {
			t.mu.Lock()
			t.cond.Broadcast()
			t.mu.Unlock()
		}
	}
}

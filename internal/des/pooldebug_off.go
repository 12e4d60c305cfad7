//go:build !pooldebug

package des

// PoolDebug reports whether this binary was built with -tags pooldebug
// (poisoned recycled events; loud panics on stale-handle use).
const PoolDebug = false

// poisonEvent is a no-op in release builds: a recycled event is out of the
// heap (index -1) with nil handlers, which makes every accidental use
// (Cancel, Live) a silent safe no-op.
func poisonEvent(e *Event) {}

// checkNotPooled is a no-op in release builds.
func checkNotPooled(e *Event, op string) {}

package pdes

import (
	"time"

	"approxsim/internal/des"
)

// Overrides of the fixed Time Warp tuning (see config) for tests that need
// more GVT rounds, cheaper checkpoints or a tighter window than runs use, to
// force rollbacks and GVT traffic within a short horizon.

func withGVTInterval(d time.Duration) Option { return func(c *config) { c.gvtInterval = d } }

func withCheckpointEvery(n int) Option { return func(c *config) { c.checkpointEvery = n } }

func withTimeWindow(w des.Time) Option { return func(c *config) { c.window = w } }

// withStallTimeout shortens the stall watchdog's fixed window, so a test can
// wedge a run for well under a second and still see the dump.
func withStallTimeout(d time.Duration) Option { return func(c *config) { c.stallTimeout = d } }

// withInboxCap sets the per-LP inbox capacity of the conservative engines
// (default 1<<15). Correctness does not depend on it — cross-LP sends drain
// the sender's own inbox while waiting (see LP.send) — so the deadlock
// regression tests use capacity 1 to exercise the worst case.
func withInboxCap(n int) Option { return func(c *config) { c.inboxCap = n } }

// withSamplerPoll sets the wall-clock poll period of the Run-managed sampler
// (see WithSampler); non-positive keeps the sampler's default (1ms).
func withSamplerPoll(d time.Duration) Option { return func(c *config) { c.samplerPoll = d } }

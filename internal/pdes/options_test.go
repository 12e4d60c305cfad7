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

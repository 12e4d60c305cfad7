package scenario

import (
	"sync"

	"approxsim/internal/faults"
	"approxsim/internal/obs"
	"approxsim/internal/pdes"
	"approxsim/internal/topology"
)

// Pool holds warmed pdes baselines keyed by BaselineKey — the spec hash with
// the fault schedule cleared. The first run of a family (same topology,
// workload, sync, partition, seed, horizon, warm point) builds a
// dynamically-faultable system, optionally runs it healthy to the named warm
// point, and checkpoints it; every subsequent family member restores that
// checkpoint and applies only its own fault delta, skipping the build and the
// shared prefix entirely. The fork determinism tests in internal/pdes prove
// the forked results are bit-identical to cold starts, which is what lets the
// server's cache treat forked and cold runs interchangeably.
type Pool struct {
	mu        sync.Mutex
	max       int
	baselines map[string]*baseline
	order     []string // LRU order: order[0] is the coldest family
	builds    uint64
	reuses    uint64
	evictions uint64
}

// baseline is one warmed system and its pristine checkpoint. Its mutex
// serializes variant runs — forks share the one underlying System — while
// different baselines run concurrently.
type baseline struct {
	mu   sync.Mutex
	cfg  topology.Config
	net  *pdes.Network
	ckpt *pdes.SystemState
}

// NewPool creates a pool retaining at most max baselines (least-recently-used
// families are evicted; max < 1 means 1). Safe for concurrent use.
func NewPool(max int) *Pool {
	if max < 1 {
		max = 1
	}
	return &Pool{max: max, baselines: make(map[string]*baseline)}
}

// PoolStats reports the pool's activity counters.
type PoolStats struct {
	// Baselines is the number of warmed systems currently retained.
	Baselines int `json:"baselines"`
	// Builds counts cold baseline constructions (cache misses).
	Builds uint64 `json:"baseline_builds"`
	// Reuses counts runs served by forking an existing baseline.
	Reuses uint64 `json:"fork_reuses"`
	// Evictions counts families dropped to stay within the retention bound.
	Evictions uint64 `json:"evictions"`
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Baselines: len(p.baselines), Builds: p.builds, Reuses: p.reuses, Evictions: p.evictions}
}

// acquire returns the baseline entry for key, creating (and LRU-evicting)
// under the pool lock. A hit promotes the family to most-recent: a steady
// sweep mix keeps its hot baselines resident while one-off families age out.
// The entry's own lock is NOT held on return.
func (p *Pool) acquire(key string) *baseline {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.baselines[key]; ok {
		p.touch(key)
		return b
	}
	b := &baseline{}
	p.baselines[key] = b
	p.order = append(p.order, key)
	if len(p.order) > p.max {
		// Evict the least-recently-used family. A goroutine mid-run on the
		// evicted baseline keeps its pointer and finishes normally; the
		// system just leaves the pool.
		delete(p.baselines, p.order[0])
		p.order = p.order[1:]
		p.evictions++
	}
	return b
}

// touch moves key to the most-recent end of the LRU order. Caller holds p.mu.
func (p *Pool) touch(key string) {
	for i, k := range p.order {
		if k == key {
			copy(p.order[i:], p.order[i+1:])
			p.order[len(p.order)-1] = key
			return
		}
	}
}

// run executes a pdes-mode spec by forking the family baseline (building it
// first if this is the family's first run), publishing live progress into
// prog (may be nil). Called by Run for eligible specs; sp is normalized and
// validated.
func (p *Pool) run(sp Spec, res *Result, prog *obs.Progress) error {
	key, err := sp.BaselineKey()
	if err != nil {
		return err
	}
	b := p.acquire(key)
	b.mu.Lock()
	defer b.mu.Unlock()

	forked := b.ckpt != nil
	if !forked {
		if err := b.build(sp); err != nil {
			// Leave the empty entry in place: the next family member simply
			// retries the build.
			return err
		}
	}
	p.mu.Lock()
	if forked {
		p.reuses++
	} else {
		p.builds++
	}
	p.mu.Unlock()

	if err := b.net.Sys.Restore(b.ckpt); err != nil {
		return err
	}
	var sched *faults.Schedule
	if sp.Faults != "" {
		if sched, err = topology.ParseFaults(b.cfg, sp.Faults); err != nil {
			return err
		}
	}
	if err := b.net.SetFaults(sched); err != nil {
		return err
	}
	// Counters accumulate across forks on the shared system; runNetwork
	// samples its base after Restore (which rewinds kernel event counts with
	// the checkpoint), so the deltas belong to this run alone.
	return sp.runNetwork(b.net, res, prog, forked)
}

// build constructs and warms the family baseline from its first member's
// spec. Baseline identity covers every fault-independent spec field, so any
// member's spec yields the same baseline.
func (b *baseline) build(sp Spec) error {
	cfg := sp.topologyConfig()
	specs, err := sp.flowSpecs(cfg)
	if err != nil {
		return err
	}
	// The collective spec is part of the baseline identity (BaselineKey only
	// clears faults), so every fork of this family re-runs the same
	// closed-loop workload from the warm checkpoint — rank progress state is
	// a registered saver and rewinds with everything else.
	popts, err := sp.pdesOptions()
	if err != nil {
		return err
	}
	net, err := pdes.Build(cfg, sp.LPs, specs, append(popts, pdes.WithDynamicFaults())...)
	if err != nil {
		return err
	}
	// Warm the baseline healthily to the named warm point (Validate pins
	// every fault strictly after the warm point, and rejects warm Time Warp
	// specs up front). Any LP count is fine: cross-LP packets in flight at
	// the warm point are parked by the engine and ride the checkpoint, so a
	// multi-LP warm fork commits identically to a cold run.
	if warm := sp.warm(); warm > 0 {
		if err := net.Sys.Run(warm); err != nil {
			return err
		}
	}
	// Checkpoint refuses Time Warp, which owns its own snapshots.
	ckpt, err := net.Sys.Checkpoint()
	if err != nil {
		return err
	}
	b.cfg, b.net, b.ckpt = cfg, net, ckpt
	return nil
}

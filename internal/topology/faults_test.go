package topology

import (
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/faults"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
)

// routeOnTwoPass is the reference failure-aware router: RouteOn without the
// all-viewed-up shortcut, asking every candidate whether it is dead on each
// of pickSurvivorTwoPass's two passes. RouteOn must agree with it exactly.
func routeOnTwoPass(cfg *Config, sched *faults.Schedule, now des.Time, sw packet.NodeID, p *packet.Packet) (int, bool) {
	dst := int(p.Dst)
	perCluster := cfg.ToRsPerCluster * cfg.ServersPerToR
	if dst < 0 || dst >= cfg.NumHosts() {
		return 0, false
	}
	torBase, aggBase, coreBase := cfg.Bases()
	dstToR := dst / cfg.ServersPerToR
	dstCluster := dst / perCluster
	healthy := sched.Empty()
	switch {
	case sw >= coreBase:
		return dstCluster, true
	case sw >= aggBase:
		agg := int(sw - aggBase)
		if cfg.Kind == LeafSpine {
			return dstToR, true
		}
		cluster := agg / cfg.AggsPerCluster
		if dstCluster == cluster {
			return dstToR % cfg.ToRsPerCluster, true
		}
		h := ecmpHash(sw, p, cfg.ECMPSeed)
		if healthy {
			return cfg.ToRsPerCluster + int(h%uint64(cfg.CoresPerAgg)), true
		}
		apos := agg % cfg.AggsPerCluster
		dstAgg := aggBase + packet.NodeID(dstCluster*cfg.AggsPerCluster+apos)
		dead := func(j int) bool {
			core := coreBase + packet.NodeID(apos*cfg.CoresPerAgg+j)
			return sched.ViewedLinkDown(sw, sw, core, now) ||
				sched.ViewedSwitchDown(sw, core, now) ||
				sched.ViewedLinkDown(sw, core, dstAgg, now)
		}
		j, ok := pickSurvivorTwoPass(cfg.CoresPerAgg, h, dead)
		return cfg.ToRsPerCluster + j, ok
	case sw >= torBase:
		tor := int(sw - torBase)
		if dstToR == tor {
			return dst % cfg.ServersPerToR, true
		}
		uplinks := cfg.AggsPerCluster
		h := ecmpHash(sw, p, cfg.ECMPSeed)
		if healthy {
			return cfg.ServersPerToR + int(h%uint64(uplinks)), true
		}
		dstToRID := torBase + packet.NodeID(dstToR)
		a, ok := pickSurvivorTwoPass(uplinks, h, func(a int) bool {
			return torUplinkDead(cfg, sched, now, sw, a, torBase, aggBase, dstToRID, dstCluster)
		})
		return cfg.ServersPerToR + a, ok
	default:
		return 0, false
	}
}

// pickSurvivorTwoPass counts the survivors in one pass and finds the pick in a
// second, calling dead twice per candidate.
func pickSurvivorTwoPass(n int, h uint64, dead func(int) bool) (int, bool) {
	m := 0
	for i := 0; i < n; i++ {
		if !dead(i) {
			m++
		}
	}
	if m == 0 {
		return 0, false
	}
	k := int(h % uint64(m))
	for i := 0; ; i++ {
		if !dead(i) {
			if k == 0 {
				return i, true
			}
			k--
		}
	}
}

// randSchedule draws 1–4 faults on the fabric of cfg: link faults on
// switch-to-switch links and switch faults on ToRs and above, transient or
// permanent, with random detection delays and jitter, all within 10 ms.
func randSchedule(r *rng.Source, cfg *Config) *faults.Schedule {
	var links []Link
	for _, ln := range cfg.Links() {
		if int(ln.A) >= cfg.NumHosts() {
			links = append(links, ln)
		}
	}
	tor, _, _ := cfg.Bases()
	switches := cfg.NumNodes() - int(tor)
	s := &faults.Schedule{Seed: r.Uint64()}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		f := faults.Fault{
			At:     des.Time(r.Int63n(int64(10 * des.Millisecond))),
			Detect: des.Time(r.Int63n(int64(200 * des.Microsecond))),
		}
		if r.Intn(2) == 0 {
			f.DetectJitter = des.Time(r.Int63n(int64(50 * des.Microsecond)))
		}
		if r.Intn(4) > 0 {
			f.Recover = f.At + 1 + des.Time(r.Int63n(int64(3*des.Millisecond)))
		}
		if r.Intn(2) == 0 {
			ln := links[r.Intn(len(links))]
			f.Kind, f.A, f.B = faults.LinkFault, ln.A, ln.B
		} else {
			f.Kind, f.A = faults.SwitchFault, tor+packet.NodeID(r.Intn(switches))
		}
		s.Faults = append(s.Faults, f)
	}
	return s
}

// TestRouteOnMatchesTwoPass checks the faulted routing fast paths — the
// all-viewed-up shortcut and the one-pass survivor mask — against the
// two-pass reference over random schedules, instants and packets, on both
// fabric kinds, including one with more than 64 uplinks per ToR. Instants
// are drawn both uniformly and at the edges where some viewer's routing
// state changes, so quiet and faulted instants are both covered.
func TestRouteOnMatchesTwoPass(t *testing.T) {
	clos := DefaultClosConfig(3)
	clos.AggsPerCluster, clos.CoresPerAgg = 3, 3
	cfgs := []Config{DefaultLeafSpineConfig(4), DefaultLeafSpineConfig(70), DefaultClosConfig(2), clos}
	r := rng.NewLabeled(1, "route-two-pass")
	checked, faulted := 0, 0
	for trial := 0; trial < 300; trial++ {
		cfg := &cfgs[trial%len(cfgs)]
		sched := randSchedule(r, cfg)
		edges := sched.SampleTimes()
		tor, _, _ := cfg.Bases()
		for i := 0; i < 40; i++ {
			now := des.Time(r.Int63n(int64(15 * des.Millisecond)))
			if i%2 == 0 {
				now = edges[r.Intn(len(edges))] + des.Time(r.Intn(3)) - 1
			}
			if !sched.AllViewedUp(now) {
				faulted++
			}
			sw := tor + packet.NodeID(r.Intn(cfg.NumNodes()-int(tor)))
			p := &packet.Packet{
				Src:    packet.HostID(r.Intn(cfg.NumHosts())),
				Dst:    packet.HostID(r.Intn(cfg.NumHosts())),
				FlowID: r.Uint64(),
			}
			gotPort, gotOK := RouteOn(cfg, sched, now, sw, p)
			wantPort, wantOK := routeOnTwoPass(cfg, sched, now, sw, p)
			if gotPort != wantPort || gotOK != wantOK {
				t.Fatalf("%v fabric, faults %+v, t=%v, switch %d, packet %+v: RouteOn = (%d, %v), two-pass = (%d, %v)",
					cfg.Kind, sched.Faults, now, sw, p, gotPort, gotOK, wantPort, wantOK)
			}
			checked++
		}
	}
	if faulted < checked/4 || faulted > checked*3/4 {
		t.Fatalf("%d of %d instants fall in a viewed fault window; the draw covers one path too thinly", faulted, checked)
	}
}

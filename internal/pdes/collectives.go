package pdes

import (
	"fmt"

	"approxsim/internal/collective"
	"approxsim/internal/packet"
	"approxsim/internal/tcp"
	"approxsim/internal/traffic"
)

// Collective workload wiring for Build. Three phases:
//
//  1. buildCollectives (before placement) resolves each Params against the
//     topology's host count and folds the instances' exact flow catalogs into
//     the declared workload, so partition-graph weighting and channel
//     quiescence account for closed-loop traffic like any other flows.
//  2. installCollectives (after device construction) binds every rank's
//     progress engine to its host's TCP stack ON THAT HOST'S OWN LP —
//     registering it as a rollback saver there — routes the stacks'
//     receiver-side completion hook into the instances, and schedules the
//     iteration-0 kickoffs as ordinary kernel events at time zero.
//  3. fillCollective (after the run) reduces the per-rank virtual-time
//     records into the deterministic result block.

// buildCollectives resolves params against the topology's hosts: ranks are
// the first Hosts host IDs (all of them when Hosts is 0), and each instance
// gets a disjoint flow-ID range above collective.FirstFlowID. Returns the
// instances plus the combined declared workload (the input specs slice is
// never mutated).
func buildCollectives(ps []collective.Params, specs []traffic.FlowSpec,
	numHosts int, hostBw int64) ([]*collective.Instance, []traffic.FlowSpec, error) {

	if len(ps) == 0 {
		return nil, specs, nil
	}
	declared := append([]traffic.FlowSpec(nil), specs...)
	var insts []*collective.Instance
	base := collective.FirstFlowID
	for _, p := range ps {
		n := p.Hosts
		if n == 0 {
			n = numHosts
		}
		if n > numHosts {
			return nil, nil, fmt.Errorf("pdes: collective %q wants %d hosts, topology has %d", p, n, numHosts)
		}
		ranks := make([]packet.HostID, n)
		for i := range ranks {
			ranks[i] = packet.HostID(i)
		}
		in, err := collective.NewInstance(p, ranks, base)
		if err != nil {
			return nil, nil, err
		}
		base += in.NumFlows()
		declared = append(declared, in.FlowSpecs(hostBw)...)
		insts = append(insts, in)
	}
	return insts, declared, nil
}

// installCollectives binds ranks to stacks and LPs, wires the receiver-side
// completion dispatch, and schedules the kickoffs. lpOfHost maps host ID to
// owning LP index. No-op with no instances — open-loop-only stacks keep a nil
// OnFlowRecv and pay nothing.
func installCollectives(insts []*collective.Instance, stacks []*tcp.Stack, lpOfHost []int, sys *System) {
	if len(insts) == 0 {
		return
	}
	for _, in := range insts {
		for r, h := range in.Ranks {
			lp := sys.LP(lpOfHost[h])
			rk := in.Bind(r, stacks[h], lp.Kernel(), lp.Trace())
			lp.AddSaver(rk)
		}
	}
	// One dispatcher per stack: collective IDs live at or above FirstFlowID,
	// so open-loop flows fall through on a single comparison.
	for _, st := range stacks {
		st.OnFlowRecv = func(flowID uint64, _ packet.HostID, _ int64) {
			if flowID < collective.FirstFlowID {
				return
			}
			for _, in := range insts {
				if in.OwnsFlow(flowID) {
					in.HandleRecv(flowID)
					return
				}
			}
		}
	}
	for _, in := range insts {
		in.Kickoff()
	}
}

// fillCollective reduces finished instances into the result: completed
// iteration count, per-iteration collective durations (virtual time, so part
// of the deterministic block), and the closed-loop flows added to
// FlowsStarted so the flow accounting covers both workload shapes.
func fillCollective(res *ExperimentResult, insts []*collective.Instance) {
	var launched uint64
	for _, in := range insts {
		launched += in.FlowsLaunched()
		res.CollectiveIters += in.CompletedIters()
		for _, d := range in.IterDurations() {
			res.CollectiveIterNS = append(res.CollectiveIterNS, int64(d))
			s := d.Seconds()
			res.CollectiveMeanIterSec += s
			if s > res.CollectiveMaxIterSec {
				res.CollectiveMaxIterSec = s
			}
		}
	}
	if n := len(res.CollectiveIterNS); n > 0 {
		res.CollectiveMeanIterSec /= float64(n)
	}
	res.FlowsStarted += int(launched)
}

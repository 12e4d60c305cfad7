// Package collective implements closed-loop collective-communication
// workloads: ML-training traffic where each flow's start is gated on
// predecessor completions rather than drawn from an open-loop arrival
// process. A collective is a DAG of TCP flows — ring all-reduce with its
// 2(N−1) sequential chunk steps, binary-tree reduce-broadcast, and
// round-robin all-to-all — whose nodes launch from TCP-stack completion
// callbacks inside the DES kernel.
//
// The launch discipline is the whole design: every dependency edge resolves
// on the logical process that must act on it (a ring successor send is
// launched by the RECEIVING rank, which is also the next send's source; an
// all-to-all round is gated on the sender's own completion callback), so no
// cross-LP calls and no wall-clock coordination exist anywhere. Time Warp
// rollback/replay and the snapshot-fork pool therefore inherit correctness
// for free: per-rank progress state implements the pdes StateSaver contract,
// and re-executed completion events re-fire the same deterministic
// transitions.
package collective

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"approxsim/internal/des"
)

// Kind selects the collective algorithm.
type Kind int

// Supported collectives.
const (
	// Ring is the bandwidth-optimal ring all-reduce: reduce-scatter then
	// all-gather, 2(N−1) serial steps of S/N-byte chunks per rank.
	Ring Kind = iota
	// Tree is a binary-tree reduce-broadcast: full-size payloads up the
	// tree, then back down — 2·depth serial rounds, which beats the ring's
	// 2(N−1) rounds when per-step latency dominates (small payloads).
	Tree
	// AllToAll is the round-robin personalized exchange: N−1 rounds in
	// which rank i sends its S/(N−1)-byte slice to rank (i+r) mod N, each
	// rank's next round gated on its own previous send completing.
	AllToAll
)

// String names the kind for the grammar and reports.
func (k Kind) String() string {
	switch k {
	case Ring:
		return "ring"
	case Tree:
		return "tree"
	case AllToAll:
		return "alltoall"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// FirstFlowID is the base of the collective flow-ID space. Open-loop
// generators number flows from 1, so any workload below 2^32 flows keeps the
// two ID ranges disjoint on a shared network.
const FirstFlowID uint64 = 1 << 32

// Params describes one collective instance, as parsed from the grammar.
type Params struct {
	Kind Kind
	// SizeBytes is the per-rank payload being reduced or exchanged. The
	// per-flow chunk follows from the algorithm: S/N for ring, S for tree,
	// S/(N−1) for all-to-all.
	SizeBytes int64
	// Iters is how many back-to-back iterations each rank runs (default 1).
	Iters int
	// Hosts is the rank count; 0 means every host in the topology.
	Hosts int
	// Gap is the per-rank compute time between finishing one iteration
	// locally and launching the next (default 0: communication-bound).
	Gap des.Time
}

// String renders the params back into the grammar.
func (p Params) String() string {
	s := fmt.Sprintf("%s:size=%d,iters=%d", p.Kind, p.SizeBytes, p.Iters)
	if p.Hosts > 0 {
		s += fmt.Sprintf(",hosts=%d", p.Hosts)
	}
	if p.Gap > 0 {
		s += fmt.Sprintf(",gap=%s", time.Duration(p.Gap))
	}
	return s
}

// Validate reports the first problem with the params, or nil.
func (p Params) Validate() error {
	switch p.Kind {
	case Ring, Tree, AllToAll:
	default:
		return fmt.Errorf("collective: unknown kind %d", int(p.Kind))
	}
	if p.SizeBytes < 1 {
		return fmt.Errorf("collective: size %d must be positive", p.SizeBytes)
	}
	if p.Iters < 1 {
		return fmt.Errorf("collective: iters %d must be positive", p.Iters)
	}
	if p.Hosts < 0 || p.Hosts == 1 {
		return fmt.Errorf("collective: hosts %d, need 0 (= all) or at least 2", p.Hosts)
	}
	if p.Gap < 0 {
		return fmt.Errorf("collective: gap must not be negative")
	}
	return nil
}

// Parse decodes the collective grammar: semicolon-separated instances of
//
//	kind:opt=val,opt=val,...
//
// where kind is ring | tree | alltoall and the options are size (bytes, with
// optional KB/MB/GB binary suffixes; default 1MB), iters (default 1), hosts
// (rank count; default 0 = every host), and gap (a Go duration, e.g. 50us;
// default 0). Example: "ring:size=256KB,iters=4,hosts=8,gap=50us".
func Parse(s string) ([]Params, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("collective: empty spec")
	}
	var out []Params
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		p, err := parseOne(item)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("collective: empty spec")
	}
	return out, nil
}

func parseOne(item string) (Params, error) {
	p := Params{SizeBytes: 1 << 20, Iters: 1}
	head, opts, hasOpts := strings.Cut(item, ":")
	switch strings.TrimSpace(head) {
	case "ring":
		p.Kind = Ring
	case "tree":
		p.Kind = Tree
	case "alltoall":
		p.Kind = AllToAll
	default:
		return p, fmt.Errorf("collective: unknown kind %q (want ring, tree, or alltoall)", head)
	}
	if hasOpts {
		for _, kv := range strings.Split(opts, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return p, fmt.Errorf("collective: option %q is not key=value", kv)
			}
			var err error
			switch key {
			case "size":
				p.SizeBytes, err = parseSize(val)
			case "iters":
				p.Iters, err = strconv.Atoi(val)
			case "hosts":
				p.Hosts, err = strconv.Atoi(val)
			case "gap":
				var d time.Duration
				d, err = time.ParseDuration(val)
				p.Gap = des.Time(d)
			default:
				err = fmt.Errorf("collective: unknown option %q (want size, iters, hosts, or gap)", key)
			}
			if err != nil {
				return p, err
			}
		}
	}
	return p, p.Validate()
}

// parseSize decodes a byte count with optional binary suffix: 262144, 256KB,
// 4MB, 1GB.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	u := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	case strings.HasSuffix(u, "B"):
		u = strings.TrimSuffix(u, "B")
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("collective: bad size %q: %v", s, err)
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("collective: size %q overflows", s)
	}
	return n * mult, nil
}

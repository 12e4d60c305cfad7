// Package scenario defines the library's single serializable experiment
// description and its single entry point: a Spec describes one simulation
// (topology, workload, faults, synchronization, seed, horizon) in canonical
// JSON, and Run executes it under any engine mode. Every front-end — the
// approxsim and figures CLIs, the whatif example, and the simd scenario
// server — builds a Spec and calls Run, so the flag grammars, the config
// structs, and the cache keys all share one definition.
//
// Canonical form is load-bearing: Spec contains no maps (Go marshals struct
// fields in declaration order, so the canonical bytes are byte-stable), and
// Normalized fills every default, so two specs that mean the same experiment
// hash to the same Key regardless of field order or omitted fields in the
// JSON they arrived as. The scenario server's result cache and the baseline
// pool both key on those hashes.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/packet"
	"approxsim/internal/pdes"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// Topology selects and sizes the simulated fabric.
type Topology struct {
	// Kind is "clos" (the paper's multi-cluster shape; full and hybrid
	// modes) or "leafspine" (the Fig. 1 PDES substrate; pdes mode).
	Kind string `json:"kind"`
	// Clusters sizes the Clos fabric (clos only; default 2).
	Clusters int `json:"clusters,omitempty"`
	// Racks is the ToR (= spine) count (leafspine only; default 4).
	Racks int `json:"racks,omitempty"`
	// QueueFrames, when positive, overrides fabric and core port queues to
	// this many max-size frames — the buffer-depth what-if knob.
	QueueFrames int64 `json:"queue_frames,omitempty"`
}

// Workload describes the offered traffic.
type Workload struct {
	// Pattern is uniform | intercluster | intracluster | incast | permutation
	// (default uniform).
	Pattern string `json:"pattern"`
	// Load is the offered fraction of aggregate host bandwidth in (0, 1]
	// (default 0.4).
	Load float64 `json:"load"`
	// SizeDist is the flow-size distribution: websearch | datamining
	// (default websearch).
	SizeDist string `json:"size_dist"`
	// Collective layers closed-loop collective-communication workloads over
	// the Poisson background (pdes mode only), in the internal/collective
	// grammar: semicolon-separated "kind:opt=val,..." instances with kind
	// ring | tree | alltoall and options size/iters/hosts/gap, e.g.
	// "ring:size=256KB,iters=4,hosts=8". With a collective set, load 0 is
	// legal and means no background traffic at all. Empty (the default)
	// keeps the field out of the canonical JSON, so legacy specs hash
	// unchanged.
	Collective string `json:"collective,omitempty"`
}

// Spec is one complete, serializable scenario. The zero value of any field
// takes its documented default (see Normalized); Validate rejects fields that
// do not apply to the selected mode rather than silently ignoring them.
type Spec struct {
	// Mode selects the engine: full | hybrid | pdes (default full).
	Mode     string   `json:"mode"`
	Topology Topology `json:"topology"`
	Workload Workload `json:"workload"`
	// Faults is a declarative fault schedule (pdes mode), e.g.
	// "link:tor0-spine1@1ms+500us,detect=50us;switch:spine0@2ms+1ms".
	Faults string `json:"faults,omitempty"`
	// Sync is the PDES synchronization algorithm: nullmsg | barrier |
	// timewarp (pdes mode; default nullmsg).
	Sync string `json:"sync,omitempty"`
	// Partition is the PDES fabric placement. Its one value, and the
	// default, is contiguous: racks in contiguous runs by weight, fabric
	// switch f on LP f % lps (pdes mode).
	Partition string `json:"partition,omitempty"`
	// LPs is the logical-process count (pdes mode; default 1).
	LPs int `json:"lps,omitempty"`
	// Seed roots all randomness.
	Seed uint64 `json:"seed"`
	// HorizonMS is how long flows arrive, in virtual milliseconds
	// (default 5).
	HorizonMS float64 `json:"horizon_ms"`
	// DrainMS is extra virtual time for in-flight flows to finish (clos
	// modes; default HorizonMS/2).
	DrainMS float64 `json:"drain_ms,omitempty"`
	// WarmMS, when positive, names the warm point baseline forks continue
	// from (pdes mode, conservative sync — any LP count): the baseline
	// simulates healthily to WarmMS once, and each variant restores that
	// checkpoint instead of replaying the prefix. Cross-LP packets in flight
	// at the warm point ride the checkpoint's parked buffer, so multi-LP warm
	// forks commit identically to cold runs. Every fault must start strictly
	// after the warm point; Time Warp cannot warm-fork (its snapshot
	// machinery is owned by the rollback protocol).
	WarmMS float64 `json:"warm_ms,omitempty"`
	// DCTCP switches hosts and switches to DCTCP with shallow ECN marking.
	DCTCP bool `json:"dctcp,omitempty"`
	// ModelsPath is a trained model bundle for hybrid mode
	// (callers may instead supply models in-process via WithModels).
	ModelsPath string `json:"models_path,omitempty"`
	// Capture records boundary traces for training (full mode only):
	// "" | cluster.
	Capture string `json:"capture,omitempty"`
}

// Normalized returns a copy with every default filled in and aliases
// canonicalized. Two specs meaning the same experiment normalize to identical
// structs — the precondition for stable cache keys.
func (s Spec) Normalized() Spec {
	if s.Mode == "" {
		s.Mode = "full"
	}
	if s.Workload.Pattern == "" {
		s.Workload.Pattern = "uniform"
	}
	if s.Workload.Load == 0 && s.Workload.Collective == "" {
		// With a collective, load 0 is meaningful: collective-only, no
		// Poisson background.
		s.Workload.Load = 0.4
	}
	if s.Workload.SizeDist == "" {
		s.Workload.SizeDist = "websearch"
	}
	if s.HorizonMS == 0 {
		s.HorizonMS = 5
	}
	if s.Mode == "pdes" {
		if s.Topology.Kind == "" {
			s.Topology.Kind = "leafspine"
		}
		if s.Topology.Racks == 0 {
			s.Topology.Racks = 4
		}
		if s.Sync == "" || s.Sync == "null" {
			s.Sync = "nullmsg"
		}
		if s.Partition == "" {
			s.Partition = "contiguous"
		}
		if s.LPs == 0 {
			s.LPs = 1
		}
	} else {
		if s.Topology.Kind == "" {
			s.Topology.Kind = "clos"
		}
		if s.Topology.Clusters == 0 {
			s.Topology.Clusters = 2
		}
		if s.DrainMS == 0 {
			s.DrainMS = s.HorizonMS / 2
		}
	}
	return s
}

// Validate reports the first problem with the spec, or nil. It checks both
// applicability (fields set for a mode that ignores them are errors, so a
// typo'd request cannot silently poison a cache key) and the grammar of every
// embedded mini-language (sync, partition, faults, pattern, size_dist).
func (s Spec) Validate() error {
	switch s.Mode {
	case "", "full", "hybrid", "pdes":
	default:
		return fmt.Errorf("scenario: unknown mode %q (want full, hybrid, or pdes)", s.Mode)
	}
	n := s.Normalized()
	pdesMode := n.Mode == "pdes"

	// Applicability.
	if pdesMode {
		if n.Topology.Kind != "leafspine" {
			return fmt.Errorf("scenario: pdes mode needs topology kind \"leafspine\", got %q", n.Topology.Kind)
		}
		if s.Topology.Clusters != 0 {
			return fmt.Errorf("scenario: topology.clusters does not apply to pdes mode (use racks)")
		}
		if s.DrainMS != 0 {
			return fmt.Errorf("scenario: drain_ms does not apply to pdes mode")
		}
	} else {
		if n.Topology.Kind != "clos" {
			return fmt.Errorf("scenario: mode %q needs topology kind \"clos\", got %q", n.Mode, n.Topology.Kind)
		}
		if s.Topology.Racks != 0 {
			return fmt.Errorf("scenario: topology.racks only applies to pdes mode (use clusters)")
		}
		// An ordered list, not a map: a spec setting several of these must
		// get the same error every time (the server's 400 body quotes it).
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"sync", s.Sync != ""},
			{"partition", s.Partition != ""},
			{"lps", s.LPs != 0},
			{"faults", s.Faults != ""},
			{"warm_ms", s.WarmMS != 0},
			{"workload.collective", s.Workload.Collective != ""},
		} {
			if f.set {
				return fmt.Errorf("scenario: %s only applies to pdes mode", f.name)
			}
		}
	}
	if s.Capture != "" && n.Mode != "full" {
		return fmt.Errorf("scenario: capture only applies to full mode")
	}
	if s.DCTCP && pdesMode {
		// The leaf-spine PDES stacks run fixed transport; silently ignoring
		// the flag would alias two different cache keys.
		return fmt.Errorf("scenario: dctcp only applies to the packet-level clos modes")
	}
	if s.ModelsPath != "" && n.Mode != "hybrid" {
		return fmt.Errorf("scenario: models_path only applies to hybrid mode")
	}
	switch s.Capture {
	case "", "cluster":
	default:
		return fmt.Errorf("scenario: unknown capture %q (want cluster)", s.Capture)
	}

	// Ranges and grammars (on the normalized copy, so defaults are in play).
	// NaN slips past every range comparison below, and neither NaN nor ±Inf
	// survives the JSON encoding of the cache key.
	for i, v := range []float64{n.Workload.Load, n.HorizonMS, n.DrainMS, n.WarmMS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			name := []string{"load", "horizon_ms", "drain_ms", "warm_ms"}[i]
			return fmt.Errorf("scenario: %s %g is not a finite number", name, v)
		}
	}
	if n.Workload.Collective != "" {
		if n.Workload.Load < 0 || n.Workload.Load > 1 {
			return fmt.Errorf("scenario: load %g out of [0, 1] (0 = collective only)", n.Workload.Load)
		}
	} else if n.Workload.Load <= 0 || n.Workload.Load > 1 {
		return fmt.Errorf("scenario: load %g out of (0, 1]", n.Workload.Load)
	}
	if _, err := n.pattern(); err != nil {
		return err
	}
	if _, err := n.sizeCDF(); err != nil {
		return err
	}
	if n.HorizonMS <= 0 {
		return fmt.Errorf("scenario: horizon_ms %g must be positive", n.HorizonMS)
	}
	if n.DrainMS < 0 {
		return fmt.Errorf("scenario: drain_ms %g must not be negative", n.DrainMS)
	}
	// Queues are int64 bytes; a deeper one would wrap negative.
	if f, most := s.Topology.QueueFrames, int64(math.MaxInt64/packet.MaxFrameSize); f < 0 || f > most {
		return fmt.Errorf("scenario: topology.queue_frames %d out of [0, %d] (0 = default queues)", f, most)
	}
	// Virtual time is int64 nanoseconds; a longer run would wrap negative.
	if maxMS := float64(des.MaxTime / des.Millisecond); n.HorizonMS+n.DrainMS > maxMS {
		return fmt.Errorf("scenario: horizon_ms %g + drain_ms %g exceeds the largest virtual time, %.0f ms",
			n.HorizonMS, n.DrainMS, maxMS)
	}
	if !pdesMode {
		if n.Topology.Clusters < 2 {
			return fmt.Errorf("scenario: clusters %d, need at least 2", n.Topology.Clusters)
		}
		return nil
	}

	// PDES-only checks.
	if n.Topology.Racks < 2 {
		return fmt.Errorf("scenario: racks %d, need at least 2", n.Topology.Racks)
	}
	if n.LPs < 1 || n.LPs > n.Topology.Racks {
		return fmt.Errorf("scenario: lps %d, need 1..%d (one rack per LP minimum)", n.LPs, n.Topology.Racks)
	}
	if _, err := pdes.ParseSyncAlgo(n.Sync); err != nil {
		return err
	}
	if n.Partition != "contiguous" {
		return fmt.Errorf("scenario: partition %q, the only fabric placement is \"contiguous\"", n.Partition)
	}
	if n.WarmMS < 0 {
		return fmt.Errorf("scenario: warm_ms %g must not be negative", n.WarmMS)
	}
	if n.WarmMS >= n.HorizonMS {
		return fmt.Errorf("scenario: warm_ms %g must lie before horizon_ms %g", n.WarmMS, n.HorizonMS)
	}
	if n.WarmMS > 0 && n.Sync == "timewarp" {
		// Surface the engine limitation at validation time instead of letting
		// it fail later as the pool's generic "conservative engines only"
		// build error. (Multi-LP warm points are fine: cross-LP packets in
		// flight at the warm point are parked and ride the checkpoint.)
		return fmt.Errorf("scenario: warm_ms needs a conservative sync (nullmsg or barrier); timewarp cannot checkpoint a warm point — drop warm_ms or switch sync")
	}
	if n.LPs == 1 {
		// A lone LP runs as its plain kernel under every algorithm, so the
		// field would only alias cache keys of one run. Normalized fills in
		// the default, which stays accepted.
		if n.Sync != "nullmsg" {
			return fmt.Errorf("scenario: sync does not apply to lps 1")
		}
	}
	if n.Workload.Collective != "" {
		ps, err := collective.Parse(n.Workload.Collective)
		if err != nil {
			return err
		}
		cfg := n.topologyConfig()
		for _, p := range ps {
			if hosts := cfg.NumHosts(); p.Hosts > hosts {
				return fmt.Errorf("scenario: collective %q wants %d hosts, topology has %d",
					p, p.Hosts, hosts)
			}
		}
	}
	if n.Faults != "" {
		sched, err := n.faultSchedule(n.topologyConfig())
		if err != nil {
			return fmt.Errorf("scenario: faults: %w", err)
		}
		if warm := n.warm(); warm > 0 {
			for i := range sched.Faults {
				if sched.Faults[i].At <= warm {
					// At exactly the warm point the baseline has already
					// executed the instant healthily, so the fault must start
					// strictly after it.
					return fmt.Errorf("scenario: fault %d starts at %v, not after the %gms warm point",
						i, sched.Faults[i].At, n.WarmMS)
				}
			}
		}
	}
	return nil
}

// Canonical returns the canonical JSON encoding of the spec: validated,
// normalized, and marshalled with Go's deterministic struct-order encoder.
// Byte-stable across runs and input field orders — the cache-key bytes.
func (s Spec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.Normalized())
}

// Key returns the canonical hash of the spec — the scenario server's result
// cache key.
func (s Spec) Key() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// BaselineKey returns the canonical hash of the spec with its fault schedule
// cleared — the key under which fault variants share one warmed baseline in
// the Pool. Two specs differing only in faults baseline-key identically.
func (s Spec) BaselineKey() (string, error) {
	n := s.Normalized()
	n.Faults = ""
	return n.Key()
}

// horizon, drain, and warm convert the millisecond knobs to virtual time;
// end is how long a run simulates: the horizon plus the drain
// (zero in pdes mode).
func (s Spec) horizon() des.Time { return des.Time(s.HorizonMS * float64(des.Millisecond)) }
func (s Spec) drain() des.Time   { return des.Time(s.DrainMS * float64(des.Millisecond)) }
func (s Spec) warm() des.Time    { return des.Time(s.WarmMS * float64(des.Millisecond)) }
func (s Spec) end() des.Time     { return s.horizon() + s.drain() }

// pattern parses the workload pattern name.
func (s Spec) pattern() (traffic.Pattern, error) {
	switch s.Workload.Pattern {
	case "", "uniform":
		return traffic.Uniform, nil
	case "intercluster":
		return traffic.InterCluster, nil
	case "intracluster":
		return traffic.IntraCluster, nil
	case "incast":
		return traffic.Incast, nil
	case "permutation":
		return traffic.Permutation, nil
	default:
		return 0, fmt.Errorf("scenario: unknown pattern %q", s.Workload.Pattern)
	}
}

// sizeCDF parses the flow-size distribution name.
func (s Spec) sizeCDF() (*rng.EmpiricalCDF, error) {
	switch s.Workload.SizeDist {
	case "", "websearch":
		return traffic.WebSearchCDF(), nil
	case "datamining":
		return traffic.DataMiningCDF(), nil
	default:
		return nil, fmt.Errorf("scenario: unknown size_dist %q (want websearch or datamining)", s.Workload.SizeDist)
	}
}

// topologyConfig resolves the concrete topology (normalized specs only). A
// clos spec resolves through its engine config, whose ECN thresholds carry
// DCTCP.
func (s Spec) topologyConfig() topology.Config {
	if s.Mode == "pdes" {
		return s.fabric()
	}
	return s.coreConfig().TopologyConfig()
}

// fabric is the spec's topology before any transport-dependent setting.
func (s Spec) fabric() topology.Config {
	var cfg topology.Config
	if s.Mode == "pdes" {
		cfg = topology.DefaultLeafSpineConfig(s.Topology.Racks)
	} else {
		cfg = topology.DefaultClosConfig(s.Topology.Clusters)
	}
	if f := s.Topology.QueueFrames; f > 0 {
		cfg.FabricLink.QueueBytes = f * packet.MaxFrameSize
		cfg.CoreLink.QueueBytes = f * packet.MaxFrameSize
	}
	return cfg
}

// collectives parses the collective grammar (normalized, validated specs
// only); empty spec means none.
func (s Spec) collectives() ([]collective.Params, error) {
	if s.Workload.Collective == "" {
		return nil, nil
	}
	return collective.Parse(s.Workload.Collective)
}

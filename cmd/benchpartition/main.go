// Command benchpartition is the partitioning regression gate. It runs the
// Fig. 1 leaf-spine PDES workload under all three fabric partitioners
// (contiguous, spine-aware, min-cut) over a fixed seed set, writes the
// results as JSON (BENCH_partition.json in CI), and exits nonzero unless the
// placement-optimizing partitioners beat the contiguous baseline on BOTH
// cross-LP packets and null messages, summed over the seeds.
//
// The gate compares counters, not wall-clock: cross_lp_packets is exactly
// reproducible for a given (topology, workload, placement), and while the
// null-message count wobbles a little with goroutine timing (an LP that runs
// ahead sends a few more promises), the placement effect it gates on —
// whole channels going quiescent — is an order of magnitude larger than the
// jitter. A pass is therefore stable across machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/packet"
	"approxsim/internal/pdes"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// row is one (partitioner, seed) run.
type row struct {
	Seed          uint64  `json:"seed"`
	CrossPkts     uint64  `json:"cross_lp_packets"`
	Nulls         uint64  `json:"null_messages"`
	Channels      int     `json:"active_channels"`
	CutEdges      int     `json:"cut_edges"`
	CutWeight     float64 `json:"cut_weight"`
	LoadImbalance float64 `json:"lp_load_imbalance"`
	SimSeconds    float64 `json:"sim_seconds"`
	WallSeconds   float64 `json:"wall_seconds"`
	SimPerWall    float64 `json:"sim_per_wall"`
}

// aggregate sums the deterministic counters over a partitioner's seed runs.
type aggregate struct {
	CrossPkts uint64 `json:"cross_lp_packets"`
	Nulls     uint64 `json:"null_messages"`
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// run simulates the Poisson web-search workload of (load, seed) on every host
// of cfg for dur under null messages, with the fabric placed by part.
func run(cfg topology.Config, lps int, load float64, dur des.Time, seed uint64,
	part pdes.Partitioner) (*pdes.ExperimentResult, error) {

	hosts := make([]packet.HostID, cfg.NumHosts())
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	specs, err := traffic.GenerateSpecs(traffic.Config{
		Load:             load,
		HostBandwidthBps: cfg.HostLink.BandwidthBps,
		Seed:             seed,
	}, hosts, dur)
	if err != nil {
		return nil, err
	}
	net, err := pdes.Build(cfg, lps, specs, pdes.WithPartitioner(part))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := net.Sys.Run(dur); err != nil {
		return nil, err
	}
	return net.AssembleResult(net.Sys.Stats(), dur, time.Since(start)), nil
}

func main() {
	var (
		out   = flag.String("o", "BENCH_partition.json", "output JSON path (- for stdout)")
		n     = flag.Int("racks", 8, "leaf-spine racks (= spines)")
		lps   = flag.Int("lps", 4, "logical processes")
		load  = flag.Float64("load", 0.7, "offered load fraction of host bandwidth")
		durMS = flag.Int("dur", 2, "virtual milliseconds per run")
		seedS = flag.String("seeds", "1,2,3,42", "comma-separated seed list")
		gate  = flag.Bool("gate", true, "exit nonzero unless spine and mincut beat contiguous on aggregate cross-LP packets AND null messages")
	)
	flag.Parse()
	seeds, err := parseSeeds(*seedS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpartition:", err)
		os.Exit(2)
	}
	dur := des.Time(*durMS) * des.Millisecond
	cfg := topology.DefaultLeafSpineConfig(*n)

	report := struct {
		Racks      int                  `json:"racks"`
		LPs        int                  `json:"lps"`
		Load       float64              `json:"load"`
		DurMS      int                  `json:"dur_ms"`
		Seeds      []uint64             `json:"seeds"`
		Runs       map[string][]row     `json:"runs"`
		Aggregates map[string]aggregate `json:"aggregates"`
	}{Racks: *n, LPs: *lps, Load: *load, DurMS: *durMS, Seeds: seeds,
		Runs: map[string][]row{}, Aggregates: map[string]aggregate{}}

	names := []string{"contiguous", "spine", "mincut"}
	for _, name := range names {
		part, err := pdes.ParsePartitioner(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchpartition:", err)
			os.Exit(2)
		}
		var agg aggregate
		for _, seed := range seeds {
			fmt.Fprintf(os.Stderr, "benchpartition: %s seed=%d...\n", name, seed)
			res, err := run(cfg, *lps, *load, dur, seed, part)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchpartition:", err)
				os.Exit(2)
			}
			if res.Violations != 0 || res.QuiescentSends != 0 {
				fmt.Fprintf(os.Stderr,
					"benchpartition: FAIL %s seed=%d: %d violations, %d quiescent-channel sends\n",
					name, seed, res.Violations, res.QuiescentSends)
				os.Exit(1)
			}
			report.Runs[name] = append(report.Runs[name], row{
				Seed:          seed,
				CrossPkts:     res.CrossPkts,
				Nulls:         res.Nulls,
				Channels:      res.Channels,
				CutEdges:      res.CutEdges,
				CutWeight:     res.CutWeight,
				LoadImbalance: res.LoadImbalance,
				SimSeconds:    res.SimSeconds,
				WallSeconds:   res.WallSeconds,
				SimPerWall:    res.SimPerWall,
			})
			agg.CrossPkts += res.CrossPkts
			agg.Nulls += res.Nulls
		}
		report.Aggregates[name] = agg
	}

	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpartition:", err)
		os.Exit(2)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchpartition:", err)
		os.Exit(2)
	}

	base := report.Aggregates["contiguous"]
	failed := false
	for _, name := range names[1:] {
		a := report.Aggregates[name]
		dc := 100 * (float64(a.CrossPkts)/float64(base.CrossPkts) - 1)
		dn := 100 * (float64(a.Nulls)/float64(base.Nulls) - 1)
		fmt.Fprintf(os.Stderr,
			"benchpartition: %-10s cross=%d (%+.1f%%) nulls=%d (%+.1f%%) vs contiguous cross=%d nulls=%d\n",
			name, a.CrossPkts, dc, a.Nulls, dn, base.CrossPkts, base.Nulls)
		if *gate && (a.CrossPkts >= base.CrossPkts || a.Nulls >= base.Nulls) {
			fmt.Fprintf(os.Stderr, "benchpartition: FAIL %s does not beat contiguous on both counters\n", name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchpartition: ok")
}

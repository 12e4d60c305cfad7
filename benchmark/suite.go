package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Suite mode (no --workload) runs every workload in a child process of its
// own, one after the other, so no workload's heap, page cache or goroutines
// leak into the next one's numbers and peak_rss_mb is per workload.

// benchFile is BENCHMARK.json: the names, directions and bounds.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchFile() (*benchFile, error) {
	blob, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func traceFile() string { return filepath.Join(repoRoot(), "benchmark", "out", "trace.json") }

// childResult is one child's parsed output.
type childResult struct {
	final  finalLine
	detail detailLine
}

// runChild re-executes this binary for one workload and parses the detail
// line and the final line from its standard output.
func runChild(opt options, workload string, seed uint64, trace bool) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(opt.seconds), "--trace", traceArg}
	if opt.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s seed %d: short output", workload, seed)
	}
	var res childResult
	detail, ok := strings.CutPrefix(lines[len(lines)-2], "detail ")
	if !ok {
		return nil, fmt.Errorf("%s seed %d: no detail line", workload, seed)
	}
	if err := json.Unmarshal([]byte(detail), &res.detail); err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.final); err != nil {
		return nil, err
	}
	return &res, nil
}

// quartiles are Python's statistics.quantiles(values, n=4), the default
// exclusive method — what the acceptance rule is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func runSuite(opt options, repeat int, baselinePath string) int {
	bf, err := loadBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	sets := repeat
	if sets < 1 {
		sets = 1
	}
	exit := 0
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL: "+format+"\n", args...)
		exit = 1
	}

	// Workload by workload, each one's sets back to back — "ten times on each
	// workload" — so a set's spread is not widened by whatever the host did
	// during the other five workloads' turns.
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	digests := map[string][]string{}            // workload -> one digest per set
	first := map[string]*childResult{}          // set 0, for the ledger
	for _, w := range workloadNames {
		values[w] = map[string][]float64{}
		for set := 0; set < sets; set++ {
			seed := opt.seed + uint64(set)
			res, err := runChild(opt, w, seed, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			if set == 0 {
				first[w] = res
			}
			digests[w] = append(digests[w], res.detail.Digest)
			fmt.Printf("%-18s seed %d  ops_attempted %d  ops_failed %d  metrics_digest %.16s\n", w, seed, res.final.Attempted, res.final.Failed, res.detail.Digest)
			for _, m := range bf.EndToEnd {
				v := res.final.Metrics[m.Name]
				values[w][m.Name] = append(values[w][m.Name], v.Value)
				fmt.Printf("  %-14s %14.6g %-13s n=%d\n", m.Name, v.Value, v.Unit, res.detail.Samples[m.Name])
			}
			if !res.final.Correct {
				fail("%s seed %d: %d of %d operations failed: %s", w, seed, res.final.Failed, res.final.Attempted, strings.Join(res.detail.Failures, "; "))
			}
		}
	}
	// Same first spec, one LP or two: the committed result must not differ.
	for set, d := range digests["pdes_nullmsg"] {
		if d != digests["pdes_seq"][set] {
			fail("seed %d: pdes_nullmsg digest %.16s differs from pdes_seq digest %.16s", opt.seed+uint64(set), d, digests["pdes_seq"][set])
		}
	}

	if sets > 1 {
		fmt.Printf("== spread over %d sets (distance between quartiles over the median) beside each bound\n", sets)
		for _, w := range workloadNames {
			for _, m := range bf.EndToEnd {
				q1, q2, q3 := quartiles(values[w][m.Name])
				spread := (q3 - q1) / q2
				verdict := "ok"
				switch {
				case m.Name == "setup_s":
					verdict = "not gated"
				case spread > m.Bound:
					verdict = "OVER BOUND"
					fail("%s %s: spread %.4f over bound %.2f", w, m.Name, spread, m.Bound)
				case spread > m.Bound/3:
					verdict = "over a third of the bound"
				}
				fmt.Printf("%-18s %-14s median %12.6g  spread %.4f  bound %.2f  %s\n", w, m.Name, q2, spread, m.Bound, verdict)
			}
		}
	}

	if baselinePath != "" {
		if err := writeLedger(opt, baselinePath, first); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return exit
}

// writeLedger runs the traced pass of every workload and writes one ledger
// row: the end-to-end numbers of this suite run's first set beside the
// per-layer numbers, stamped with where they were measured.
func writeLedger(opt options, path string, endToEndRuns map[string]*childResult) error {
	type row struct {
		Attempted int                `json:"ops_attempted"`
		Failed    int                `json:"ops_failed"`
		Digest    string             `json:"metrics_digest"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer"`
	}
	flat := func(m map[string]metricValue) map[string]float64 {
		out := map[string]float64{}
		for k, v := range m {
			out[k] = v.Value
		}
		return out
	}
	rows := map[string]row{}
	for _, w := range workloadNames {
		fmt.Printf("== traced pass: %s\n", w)
		traced, err := runChild(opt, w, opt.seed, true)
		if err != nil {
			return err
		}
		e := endToEndRuns[w]
		rows[w] = row{
			Attempted: e.final.Attempted, Failed: e.final.Failed, Digest: e.detail.Digest,
			EndToEnd: flat(e.final.Metrics), PerLayer: flat(traced.final.Metrics),
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "-C", repoRoot(), "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	type reproduced struct {
		Roadmap  string  `json:"roadmap"`
		Measured float64 `json:"measured"`
		From     string  `json:"from"`
	}
	ledger := map[string]any{
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"date": time.Now().UTC().Format("2006-01-02"), "seed": opt.seed, "seconds": opt.seconds,
		"workloads": rows,
		// The starting rows ROADMAP quotes, beside this run's reading of each.
		"roadmap_reference_rows": map[string]reproduced{
			"kernel_churn_ns_per_event":        {"66 ns/event at 0 allocs", rows["full_clos"].PerLayer["des.ns_per_event"], "des.ns_per_event (probe)"},
			"full_8_clusters_ns_per_event":     {"~105 ns/event", rows["full_clos"].PerLayer["run.ns_per_event"], "full_clos run.ns_per_event"},
			"full_8_clusters_allocs_per_event": {"0.37 allocs/event", rows["full_clos"].PerLayer["run.allocs_per_event"], "full_clos run.allocs_per_event"},
			"pdes_8_racks_2lp_over_1lp_wall":   {"0.69 s / 0.58 s = 1.19 at 20 ms", rows["pdes_nullmsg"].PerLayer["pdes.wall_over_seq"], "pdes_nullmsg pdes.wall_over_seq (same 20 ms horizon)"},
		},
	}
	blob, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

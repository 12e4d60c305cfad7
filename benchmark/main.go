// Command benchmark is the repository's benchmark: six named workloads that
// drive approxsim from outside — scenario.Run on specs written as JSON text,
// and the scenario server over a loopback listener — and print the end-to-end
// metrics named in BENCHMARK.json, or, in the traced pass, the per-layer ones.
//
//	bash benchmark/run.sh --workload full_clos --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1              # every workload, one child process each
//	bash benchmark/run.sh --repeat 10           # ten sets on seeds 1..10, spread beside bound
//
// One invocation with --workload runs one workload in this process and ends
// with one JSON line {"correct","attempted","failed","metrics"}. README.md
// beside this file is the metric catalogue.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	failures          []string           // first few reasons, for the report
	digest            string             // sha256 of the first spec's Metrics JSON
	values            map[string]float64 // metric name -> value
	samples           map[string]int     // metric name -> sample count behind it
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 5 {
			o.failures = append(o.failures, err.Error())
		}
	}
}

func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

// metricValue and finalLine are the contract's last line of standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detailLine is printed just above the final line for the suite runner: the
// things the contract's object has no key for.
type detailLine struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Digest   string         `json:"metrics_digest"`
	Samples  map[string]int `json:"samples"`
	Failures []string       `json:"failures,omitempty"`
}

func main() {
	var (
		opt      options
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		repeat   = flag.Int("repeat", 0, "suite mode: run this many sets on consecutive seeds and check each spread against its bound")
		baseline = flag.String("baseline", "", "suite mode: also run the traced pass and write the ledger row to this file")
	)
	flag.StringVar(&opt.workload, "workload", "", "run this one workload in-process (default: the suite, one child process per workload)")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed generates the same specs")
	flag.Float64Var(&opt.seconds, "seconds", 12, "how long to measure (BENCHMARK.json run_seconds)")
	flag.BoolVar(&opt.quick, "quick", false, "tiny specs and probe counts (tests)")
	flag.Parse()
	opt.trace = *trace != 0
	if flag.NArg() > 0 || opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments; see --help")
		os.Exit(2)
	}

	if opt.workload == "" {
		os.Exit(runSuite(opt, *repeat, *baseline))
	}
	out, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	printOutcome(os.Stdout, opt, out)
}

// runWorkload runs one named workload in this process.
func runWorkload(opt options) (*outcome, error) {
	if opt.workload == "serve_sweep" {
		return runServeSweep(opt)
	}
	for _, w := range simWorkloads {
		if w.name == opt.workload {
			return runSim(w, opt)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames, ", "))
}

// printOutcome writes the human-readable report, the detail line and the
// contract's final JSON line.
func printOutcome(w *os.File, opt options, o *outcome) {
	defs := endToEnd
	pass := "end-to-end, tracing off"
	if opt.trace {
		defs, pass = perLayer, "traced pass, per-layer"
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "workload %s  seed %d  seconds %g  (%s)\n", opt.workload, opt.seed, opt.seconds, pass)
	final := finalLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	detail := detailLine{Workload: opt.workload, Seed: opt.seed, Digest: o.digest, Samples: map[string]int{}, Failures: o.failures}
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		final.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		detail.Samples[d.name] = o.samples[d.name]
		fmt.Fprintf(bw, "  %-32s %16.6g %-13s n=%d\n", d.name, v, d.unit, o.samples[d.name])
	}
	fmt.Fprintf(bw, "ops_attempted %d  ops_failed %d  metrics_digest %s\n", o.attempted, o.failed, o.digest)
	for _, f := range o.failures {
		fmt.Fprintf(bw, "FAILED: %s\n", f)
	}
	bw.WriteString("detail ")
	writeJSONLine(bw, detail)
	writeJSONLine(bw, final)
}

func writeJSONLine(w *bufio.Writer, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // only NaN or Inf can fail, and printOutcome cleared those
	}
	w.Write(blob)
	w.WriteByte('\n')
}

// millis is a duration in the unit the report uses.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digestOf names a Metrics block: the hex sha256 of its JSON bytes.
func digestOf(metrics []byte) string {
	sum := sha256.Sum256(metrics)
	return hex.EncodeToString(sum[:])
}

// median and percentile work on a copy; percentile is nearest-rank.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json: the checkout root whether the program was started
// there (run.sh) or in benchmark/ (go test).
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

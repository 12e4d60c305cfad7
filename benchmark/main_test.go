package main

import (
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON: the names the program prints and the
// names BENCHMARK.json declares are the same lists, in the same order, with
// the same units — the catalogue cannot drift.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q is malformed or used twice", w)
		}
		seen[w] = true
	}
}

// catalogued is every name BENCHMARK.json declares, per the program's lists.
func catalogued() map[string]bool {
	known := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			known[d.name] = true
		}
	}
	return known
}

func quickRun(t *testing.T, workload string, seed uint64, trace bool) *outcome {
	t.Helper()
	out, err := runWorkload(options{workload: workload, seed: seed, seconds: 0.1, trace: trace, quick: true})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", workload, seed, out.failed, out.attempted, out.failures)
	}
	return out
}

// TestWorkloadsQuick runs every workload at -quick size: seeds 1..3 pass the
// correctness checks and print every end-to-end metric, nonzero; the same
// seed twice gives the same digest.
func TestWorkloadsQuick(t *testing.T) {
	known := catalogued()
	for _, w := range workloadNames {
		var digest string
		for seed := uint64(1); seed <= 3; seed++ {
			out := quickRun(t, w, seed, false)
			for _, d := range endToEnd {
				if out.values[d.name] <= 0 {
					t.Errorf("%s seed %d: %s = %g, want > 0", w, seed, d.name, out.values[d.name])
				}
			}
			for name := range out.values {
				if !known[name] {
					t.Errorf("%s prints %q, which BENCHMARK.json does not name", w, name)
				}
			}
			if seed == 1 {
				digest = out.digest
			}
		}
		if again := quickRun(t, w, 1, false); again.digest != digest || digest == "" {
			t.Errorf("%s seed 1 twice: digests %q and %q", w, digest, again.digest)
		}
	}
}

// TestTracedPassQuick: the traced pass prints only catalogued names, every
// per-layer metric is produced by at least one workload, and the counts taken
// from a single-kernel run's first spec repeat exactly.
func TestTracedPassQuick(t *testing.T) {
	known := catalogued()
	produced := map[string]bool{}
	firsts := map[string]*outcome{}
	for _, w := range workloadNames {
		out := quickRun(t, w, 1, true)
		firsts[w] = out
		for name := range out.values {
			if !known[name] {
				t.Errorf("%s prints %q, which BENCHMARK.json does not name", w, name)
			}
			produced[name] = true
		}
	}
	for _, d := range perLayer {
		if !produced[d.name] {
			t.Errorf("no workload produces per-layer metric %s", d.name)
		}
	}
	again := quickRun(t, "full_clos", 1, true)
	for _, name := range []string{"des.events", "netsim.tx_packets", "netsim.drops", "tcp.retransmissions", "tcp.flows_completed"} {
		if a, b := firsts["full_clos"].values[name], again.values[name]; a != b || a == 0 {
			t.Errorf("full_clos %s: %g then %g, want equal and nonzero", name, a, b)
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(values, n=4), the rule the acceptance check is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %g %g %g, want 1 2 3", q1, q2, q3)
	}
}

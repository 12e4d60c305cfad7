package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"approxsim/internal/packet"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSpecs are the canonical-form fixtures. Their canonical bytes are
// committed under testdata/ so any change to field order, json tags,
// normalization defaults, or the hash preimage fails loudly — those bytes ARE
// the server's cache keys, and silently changing them would orphan every
// cached result and re-run every warmed baseline.
var goldenSpecs = []struct {
	name string
	spec Spec
}{
	{"clos_full_defaults", Spec{}},
	{"clos_hybrid", Spec{
		Mode:       "hybrid",
		Topology:   Topology{Kind: "clos", Clusters: 8, QueueFrames: 32},
		Workload:   Workload{Pattern: "intercluster", Load: 0.7, SizeDist: "datamining"},
		Seed:       42,
		HorizonMS:  4,
		DrainMS:    3,
		DCTCP:      true,
		ModelsPath: "models.bin",
	}},
	{"pdes_faulted_warm", Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 8},
		Workload:  Workload{Load: 0.5},
		Faults:    "switch:spine0@2ms+1ms,detect=50us,jitter=10us",
		Sync:      "null", // legacy alias, must canonicalize to nullmsg
		LPs:       1,
		Seed:      1003,
		HorizonMS: 6,
		WarmMS:    1.5,
	}},
	// Multi-LP warm baseline: warm_ms with lps > 1 is a first-class spec now
	// that in-flight cross-LP packets park at the warm point and ride the
	// checkpoint. The canonical bytes are a cache key like any other.
	{"pdes_warm_multilp", Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 8},
		Workload:  Workload{Load: 0.6},
		Faults:    "link:tor0-spine0@2ms+1ms,detect=40us",
		Sync:      "barrier",
		Partition: "contiguous",
		LPs:       4,
		Seed:      21,
		HorizonMS: 6,
		WarmMS:    1.5,
	}},
	// Collective workload fields: the grammar string is part of the hash
	// preimage, and load 0 (collective-only) must survive normalization
	// instead of defaulting to 0.4.
	{"pdes_collective", Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 4},
		Workload:  Workload{Collective: "ring:size=256KB,iters=2,hosts=8"},
		Sync:      "barrier",
		LPs:       2,
		Seed:      11,
		HorizonMS: 10,
	}},
	{"pdes_collective_background", Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 8},
		Workload:  Workload{Load: 0.3, Collective: "tree:size=64KB,hosts=8;alltoall:size=1MB,iters=2,hosts=4,gap=50us"},
		Sync:      "timewarp",
		Partition: "contiguous",
		LPs:       4,
		Seed:      12,
		HorizonMS: 8,
	}},
}

func TestCanonicalGolden(t *testing.T) {
	for _, g := range goldenSpecs {
		t.Run(g.name, func(t *testing.T) {
			got, err := g.spec.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run Golden -update ./internal/scenario` after an intentional schema change)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("canonical bytes changed — cache keys would rotate:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestKeyFieldOrderInvariance is the cache-key bugfix's regression test: the
// same scenario arriving as JSON with shuffled field order (and exercising
// the legacy "null" sync alias and explicit-vs-omitted defaults) must hash
// identically.
func TestKeyFieldOrderInvariance(t *testing.T) {
	docs := []string{
		`{"mode":"pdes","topology":{"kind":"leafspine","racks":8},"workload":{"pattern":"uniform","load":0.5,"size_dist":"websearch"},"faults":"switch:spine0@2ms+1ms","sync":"nullmsg","partition":"contiguous","lps":2,"seed":7,"horizon_ms":6}`,
		`{"seed":7,"horizon_ms":6,"lps":2,"faults":"switch:spine0@2ms+1ms","workload":{"size_dist":"websearch","load":0.5,"pattern":"uniform"},"topology":{"racks":8,"kind":"leafspine"},"mode":"pdes","sync":"nullmsg","partition":"contiguous"}`,
		// Defaults omitted entirely, legacy sync alias.
		`{"mode":"pdes","topology":{"racks":8},"workload":{"load":0.5},"faults":"switch:spine0@2ms+1ms","sync":"null","seed":7,"horizon_ms":6,"lps":2}`,
	}
	var keys []string
	for i, doc := range docs {
		var sp Spec
		if err := json.Unmarshal([]byte(doc), &sp); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		k, err := sp.Key()
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("doc %d keyed %s, doc 0 keyed %s — field order or defaults leaked into the hash", i, keys[i], keys[0])
		}
	}
}

// TestKeyCollectiveInvariance extends the field-order property to the
// collective workload field, and pins the two separation requirements: a
// legacy spec (no collective) hashes identically whether the field is absent
// or explicitly empty, and adding a collective changes the key.
func TestKeyCollectiveInvariance(t *testing.T) {
	docs := []string{
		`{"mode":"pdes","topology":{"racks":4},"workload":{"load":0,"collective":"ring:size=256KB,iters=2,hosts=8"},"lps":2,"seed":7,"horizon_ms":6}`,
		`{"seed":7,"lps":2,"workload":{"collective":"ring:size=256KB,iters=2,hosts=8","load":0},"horizon_ms":6,"topology":{"racks":4},"mode":"pdes"}`,
		`{"mode":"pdes","topology":{"racks":4},"workload":{"collective":"ring:size=256KB,iters=2,hosts=8"},"lps":2,"seed":7,"horizon_ms":6}`,
	}
	var keys []string
	for i, doc := range docs {
		var sp Spec
		if err := json.Unmarshal([]byte(doc), &sp); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		k, err := sp.Key()
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("doc %d keyed %s, doc 0 keyed %s", i, keys[i], keys[0])
		}
	}

	legacy := Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Seed: 7, HorizonMS: 6, LPs: 2}
	explicitEmpty := legacy
	explicitEmpty.Workload.Collective = ""
	k1, err := legacy.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicitEmpty.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("an explicitly empty collective must hash like a legacy spec (omitempty)")
	}
	withColl := legacy
	withColl.Workload.Collective = "ring:hosts=4"
	k3, err := withColl.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("adding a collective must change the cache key")
	}

	// The collective stays in the BASELINE identity (unlike faults): a
	// collective variant cannot fork a collective-free warmed baseline.
	b1, _ := legacy.BaselineKey()
	b2, _ := withColl.BaselineKey()
	if b1 == b2 {
		t.Fatal("specs differing in collective must not share a baseline")
	}
}

// TestNoMapsInSpec guards the determinism argument structurally: Go marshals
// struct fields in declaration order but map keys in randomized order, so a
// map anywhere in Spec would make Canonical nondeterministic. Walk the type.
func TestNoMapsInSpec(t *testing.T) {
	var walk func(t reflect.Type, path string)
	seen := map[reflect.Type]bool{}
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map:
			t.Fatalf("%s is a map — map iteration order would randomize canonical bytes", path)
		case reflect.Ptr, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Spec{}), "Spec")
}

func TestBaselineKey(t *testing.T) {
	base := Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Seed: 7, HorizonMS: 2, LPs: 2}
	faulted := base
	faulted.Faults = "switch:spine0@500us+600us"

	bk1, err := base.BaselineKey()
	if err != nil {
		t.Fatal(err)
	}
	bk2, err := faulted.BaselineKey()
	if err != nil {
		t.Fatal(err)
	}
	if bk1 != bk2 {
		t.Fatal("specs differing only in faults must share a baseline key")
	}
	k1, _ := base.Key()
	k2, _ := faulted.Key()
	if k1 == k2 {
		t.Fatal("specs differing in faults must not share a result key")
	}
	reseeded := faulted
	reseeded.Seed = 8
	bk3, _ := reseeded.BaselineKey()
	if bk3 == bk1 {
		t.Fatal("a different seed is a different baseline")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown mode", Spec{Mode: "quantum"}},
		{"lps outside pdes", Spec{Mode: "full", LPs: 2}},
		{"sync outside pdes", Spec{Mode: "full", Sync: "nullmsg"}},
		{"partition outside pdes", Spec{Mode: "fluid", Partition: "contiguous"}},
		{"faults outside pdes", Spec{Mode: "full", Faults: "switch:spine0@1ms"}},
		{"warm outside pdes", Spec{Mode: "full", WarmMS: 1}},
		{"racks outside pdes", Spec{Mode: "full", Topology: Topology{Racks: 4}}},
		{"clusters in pdes", Spec{Mode: "pdes", Topology: Topology{Clusters: 2}}},
		{"capture outside full", Spec{Mode: "fluid", Capture: "cluster"}},
		{"unknown capture", Spec{Mode: "full", Capture: "everything"}},
		{"models outside hybrid", Spec{Mode: "full", ModelsPath: "m.bin"}},
		{"bad load", Spec{Workload: Workload{Load: 1.5}}},
		{"bad pattern", Spec{Workload: Workload{Pattern: "bursty"}}},
		{"bad size dist", Spec{Workload: Workload{SizeDist: "pareto"}}},
		{"dctcp in pdes", Spec{Mode: "pdes", DCTCP: true}},
		{"dctcp in fluid", Spec{Mode: "fluid", DCTCP: true}},
		{"drain in fluid", Spec{Mode: "fluid", DrainMS: 3}},
		{"queue frames in fluid", Spec{Mode: "fluid", Topology: Topology{QueueFrames: 10}}},
		{"bad sync", Spec{Mode: "pdes", Sync: "lockstep"}},
		{"bad partition", Spec{Mode: "pdes", Partition: "random"}},
		{"too many lps", Spec{Mode: "pdes", Topology: Topology{Racks: 4}, LPs: 8}},
		{"warm past horizon", Spec{Mode: "pdes", HorizonMS: 2, WarmMS: 2, LPs: 1}},
		{"warm timewarp", Spec{Mode: "pdes", WarmMS: 1, HorizonMS: 4, Sync: "timewarp"}},
		{"fault before warm", Spec{Mode: "pdes", WarmMS: 1, HorizonMS: 4, LPs: 1,
			Faults: "switch:spine0@500us+100us"}},
		{"bad fault grammar", Spec{Mode: "pdes", Faults: "spine0 dies at noon"}},
		{"unknown fault name", Spec{Mode: "pdes", Topology: Topology{Racks: 4},
			Faults: "switch:spine99@1ms"}},
		{"collective outside pdes", Spec{Mode: "full",
			Workload: Workload{Collective: "ring:hosts=4"}}},
		{"bad collective grammar", Spec{Mode: "pdes",
			Workload: Workload{Collective: "butterfly:hosts=4"}}},
		{"collective single host", Spec{Mode: "pdes",
			Workload: Workload{Collective: "ring:hosts=1"}}},
		{"collective too many hosts", Spec{Mode: "pdes", Topology: Topology{Racks: 4},
			Workload: Workload{Collective: "ring:hosts=64"}}}, // 4 racks = 16 hosts
		{"collective negative load", Spec{Mode: "pdes",
			Workload: Workload{Load: -0.1, Collective: "ring:hosts=4"}}},
		{"load zero without collective", Spec{Mode: "pdes",
			Workload: Workload{Load: -1}}},
		{"horizon past max time", Spec{Mode: "pdes", Topology: Topology{Racks: 4},
			Workload: Workload{Load: 0.1}, HorizonMS: 1e13}},
		{"drain past max time", Spec{Mode: "full", DrainMS: 1e13}},
		{"negative queue frames", Spec{Topology: Topology{QueueFrames: -5}}},
		{"queue bytes overflow", Spec{Topology: Topology{QueueFrames: math.MaxInt64/packet.MaxFrameSize + 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.spec.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", c.spec)
			}
		})
	}
	// A retired placement is rejected at any LP count, by an error that
	// names the one placement left.
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"mincut at one lp", Spec{Mode: "pdes", LPs: 1, Partition: "mincut"}},
		{"spine at default lps", Spec{Mode: "pdes", Partition: "spine"}},
		{"mincut at two lps", Spec{Mode: "pdes", LPs: 2, Partition: "mincut"}},
		{"spine at two lps", Spec{Mode: "pdes", LPs: 2, Partition: "spine"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), `"contiguous"`) {
				t.Fatalf("Validate(%+v) = %v, want an error naming \"contiguous\"", c.spec, err)
			}
		})
	}
	// A non-finite number must be rejected by name, before it reaches the
	// cache key's JSON encoding.
	for _, c := range []struct {
		name, field string
		spec        Spec
	}{
		{"nan load", "load", Spec{Mode: "full", Workload: Workload{Load: math.NaN()}}},
		{"infinite load", "load", Spec{Mode: "pdes", Workload: Workload{Load: math.Inf(-1)}}},
		{"nan horizon", "horizon_ms", Spec{Mode: "pdes", HorizonMS: math.NaN()}},
		{"nan drain", "drain_ms", Spec{Mode: "full", DrainMS: math.NaN()}},
		{"nan warm", "warm_ms", Spec{Mode: "pdes", HorizonMS: 4, WarmMS: math.NaN()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.field+" ") {
				t.Fatalf("Validate(%+v) = %v, want an error naming %s", c.spec, err, c.field)
			}
		})
	}
	// One LP runs as its plain kernel whatever the sync, so a non-default
	// value is rejected by name rather than minting a second cache key for
	// the same run.
	for _, c := range []struct {
		name, field string
		spec        Spec
	}{
		{"barrier at one lp", "sync", Spec{Mode: "pdes", LPs: 1, Sync: "barrier"}},
		{"timewarp at default lps", "sync", Spec{Mode: "pdes", Sync: "timewarp"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.field+" ") {
				t.Fatalf("Validate(%+v) = %v, want an error naming %s", c.spec, err, c.field)
			}
		})
	}
}

// TestOneLPDefaultsShareAKey: at lps 1 the defaults, spelled out or aliased,
// are accepted and hash to the key of the bare spec.
func TestOneLPDefaultsShareAKey(t *testing.T) {
	bare := Spec{Mode: "pdes", LPs: 1, Seed: 3}
	want, err := bare.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []Spec{
		{Mode: "pdes", Seed: 3},
		{Mode: "pdes", LPs: 1, Seed: 3, Sync: "nullmsg", Partition: "contiguous"},
		{Mode: "pdes", LPs: 1, Seed: 3, Sync: "null"},
	} {
		if got, err := sp.Key(); err != nil || got != want {
			t.Errorf("Key(%+v) = %q, %v; want %q", sp, got, err, want)
		}
	}
}

// TestValidateWarmMultiLP pins the bugfix's API half: warm_ms with lps > 1
// (any conservative sync) used to be rejected outright; now that the engine
// parks in-flight cross-LP packets at the warm point, it must validate.
func TestValidateWarmMultiLP(t *testing.T) {
	for _, sync := range []string{"", "nullmsg", "null", "barrier"} {
		sp := Spec{Mode: "pdes", WarmMS: 1, HorizonMS: 4, LPs: 2, Sync: sync}
		if err := sp.Validate(); err != nil {
			t.Errorf("sync %q: Validate rejected a multi-LP warm spec: %v", sync, err)
		}
	}
}

func TestNormalizedDefaults(t *testing.T) {
	n := Spec{}.Normalized()
	if n.Mode != "full" || n.Topology.Kind != "clos" || n.Topology.Clusters != 2 ||
		n.Workload.Pattern != "uniform" || n.Workload.Load != 0.4 ||
		n.Workload.SizeDist != "websearch" || n.HorizonMS != 5 || n.DrainMS != 2.5 {
		t.Fatalf("unexpected clos defaults: %+v", n)
	}
	p := Spec{Mode: "pdes"}.Normalized()
	if p.Topology.Kind != "leafspine" || p.Topology.Racks != 4 || p.LPs != 1 ||
		p.Sync != "nullmsg" || p.Partition != "contiguous" || p.DrainMS != 0 {
		t.Fatalf("unexpected pdes defaults: %+v", p)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Collective-only: load 0 means "no background traffic" and must not
	// default to 0.4 (that would silently add Poisson flows to — and rotate
	// the cache key of — every collective-only spec).
	c := Spec{Mode: "pdes", Workload: Workload{Collective: "ring:hosts=4"}}.Normalized()
	if c.Workload.Load != 0 {
		t.Fatalf("collective-only load defaulted to %g, want 0", c.Workload.Load)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsSpec checks the flag→spec assembly honors mode applicability, so
// leftover pdes defaults on a clos-mode invocation can't fail Validate.
func TestFlagsSpec(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Bind(fs)
	if err := fs.Parse([]string{"-mode", "full", "-clusters", "4", "-dur", "3"}); err != nil {
		t.Fatal(err)
	}
	sp := f.Spec()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Topology.Clusters != 4 || sp.HorizonMS != 3 || sp.Sync != "" || sp.LPs != 0 {
		t.Fatalf("clos-mode spec carries pdes fields: %+v", sp)
	}

	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	f2 := Bind(fs2)
	if err := fs2.Parse([]string{"-mode", "pdes", "-racks", "8", "-lps", "4",
		"-sync", "barrier", "-faults", "switch:spine0@1ms"}); err != nil {
		t.Fatal(err)
	}
	sp2 := f2.Spec()
	if err := sp2.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp2.Topology.Racks != 8 || sp2.LPs != 4 || sp2.Sync != "barrier" || sp2.Faults == "" {
		t.Fatalf("pdes-mode spec dropped fields: %+v", sp2)
	}

	// Bind's -sync default is the normalized default, so an -lps 1 run that
	// leaves it alone validates.
	fs3 := flag.NewFlagSet("t", flag.ContinueOnError)
	f3 := Bind(fs3)
	if err := fs3.Parse([]string{"-mode", "pdes", "-lps", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := f3.Spec().Validate(); err != nil {
		t.Fatal(err)
	}

	sweep := BindSweep(flag.NewFlagSet("t", flag.ContinueOnError))
	psp := sweep.PDESSpec(16, 4, 0.4, 1, 2)
	if err := psp.Validate(); err != nil {
		t.Fatal(err)
	}
	// A sweep's lps=1 point is its sequential reference: it drops the swept
	// sync instead of failing validation.
	fs4 := flag.NewFlagSet("t", flag.ContinueOnError)
	sweep = BindSweep(fs4)
	if err := fs4.Parse([]string{"-sync", "barrier"}); err != nil {
		t.Fatal(err)
	}
	for _, lps := range []int{1, 4} {
		if err := sweep.PDESSpec(16, lps, 0.4, 1, 2).Validate(); err != nil {
			t.Fatalf("lps=%d sweep point: %v", lps, err)
		}
	}
	if sp := sweep.PDESSpec(16, 4, 0.4, 1, 2); sp.Sync != "barrier" {
		t.Fatalf("lps=4 sweep point dropped sync: %+v", sp)
	}

	// The fabric placement has no flag.
	fs5 := flag.NewFlagSet("t", flag.ContinueOnError)
	fs5.SetOutput(io.Discard)
	Bind(fs5)
	if err := fs5.Parse([]string{"-partition", "contiguous"}); err == nil {
		t.Fatal("Bind registered a -partition flag")
	}
}

// TestValidateErrorDeterministic: a clos spec setting several pdes-only
// fields reports the same one every time — the scenario server quotes the
// message in its 400 body.
func TestValidateErrorDeterministic(t *testing.T) {
	var sp Spec
	if err := json.Unmarshal([]byte(`{"mode":"full","sync":"barrier","lps":2}`), &sp); err != nil {
		t.Fatal(err)
	}
	msgs := map[string]bool{}
	for i := 0; i < 50; i++ {
		err := sp.Validate()
		if err == nil {
			t.Fatal("clos spec with pdes-only fields accepted")
		}
		msgs[err.Error()] = true
	}
	if len(msgs) != 1 {
		t.Fatalf("50 validations gave %d different messages: %v", len(msgs), msgs)
	}
}

package scenario

import "flag"

// Flags is the one definition of the CLI flag surface over Spec: approxsim
// binds the full set, figures binds the sweep subset, and both produce Specs
// through it — so the -faults / -sync grammars (and every
// default) exist exactly once, here, instead of once per command.
type Flags struct {
	Mode       string
	Clusters   int
	DurMS      int
	Load       float64
	Seed       uint64
	Pattern    string
	Models     string
	DCTCP      bool
	Workload   string
	Racks      int
	LPs        int
	Sync       string
	Faults     string
	Collective string
}

// Bind registers the full scenario flag surface on fs and returns the
// destination struct. Call fs.Parse, then Spec.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Mode, "mode", "full", "full | hybrid | pdes")
	fs.IntVar(&f.Clusters, "clusters", 2, "number of clusters (4 switches + 8 servers each)")
	fs.IntVar(&f.DurMS, "dur", 5, "virtual milliseconds of flow arrivals")
	fs.Float64Var(&f.Load, "load", 0.4, "offered load fraction of host bandwidth")
	fs.Uint64Var(&f.Seed, "seed", 1, "root random seed")
	fs.StringVar(&f.Pattern, "pattern", "uniform", "uniform | intercluster | intracluster | incast | permutation")
	fs.StringVar(&f.Models, "models", "", "model bundle from trainmodel (hybrid mode)")
	fs.BoolVar(&f.DCTCP, "dctcp", false, "run DCTCP instead of TCP New Reno (shallow ECN marking everywhere)")
	fs.StringVar(&f.Workload, "workload", "websearch", "flow-size distribution: websearch | datamining")
	fs.IntVar(&f.Racks, "racks", 4, "leaf-spine racks (pdes mode)")
	fs.IntVar(&f.LPs, "lps", 2, "logical processes (pdes mode; 1 = sequential)")
	f.bindPDESGrammar(fs)
	return f
}

// BindSweep registers only the PDES sweep subset (sync, faults, collective) —
// for commands like figures whose sweep loops own size, load, and seed.
func BindSweep(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.bindPDESGrammar(fs)
	return f
}

// bindPDESGrammar registers the PDES mini-language flags — the grammars
// the satellite refactor exists to centralize.
func (f *Flags) bindPDESGrammar(fs *flag.FlagSet) {
	fs.StringVar(&f.Sync, "sync", "nullmsg", "pdes synchronization: nullmsg | barrier | timewarp")
	fs.StringVar(&f.Faults, "faults", "", "pdes fault schedule, e.g. 'link:tor0-spine1@1ms+500us,detect=50us,jitter=10us;switch:spine0@2ms+1ms' ('+dur' omitted = permanent)")
	fs.StringVar(&f.Collective, "collective", "", "pdes collective workload, e.g. 'ring:size=256KB,iters=4,hosts=8' (kinds: ring | tree | alltoall; -load 0 = collective only)")
}

// Spec assembles the scenario the parsed flags describe. Mode-specific fields
// are only set for their mode, matching Validate's applicability rules.
func (f *Flags) Spec() Spec {
	sp := Spec{
		Mode: f.Mode,
		Workload: Workload{
			Pattern:  f.Pattern,
			Load:     f.Load,
			SizeDist: f.Workload,
		},
		Seed:      f.Seed,
		HorizonMS: float64(f.DurMS),
		DCTCP:     f.DCTCP,
	}
	if f.Mode == "pdes" {
		sp.Topology = Topology{Kind: "leafspine", Racks: f.Racks}
		sp.Sync = f.Sync
		sp.LPs = f.LPs
		sp.Faults = f.Faults
		sp.Workload.Collective = f.Collective
	} else {
		sp.Topology = Topology{Kind: "clos", Clusters: f.Clusters}
	}
	if f.Mode == "hybrid" {
		sp.ModelsPath = f.Models
	}
	return sp
}

// PDESSpec assembles one pdes-mode sweep point: the sweep loop supplies size
// and placement, the bound flags supply the sync/faults grammars. The lps=1
// point is the sequential reference of every sweep, so it carries no sync,
// matching Validate's applicability rules.
func (f *Flags) PDESSpec(racks, lps int, load float64, seed uint64, durMS float64) Spec {
	sp := Spec{
		Mode:      "pdes",
		Topology:  Topology{Kind: "leafspine", Racks: racks},
		Workload:  Workload{Load: load, Collective: f.Collective},
		Faults:    f.Faults,
		LPs:       lps,
		Seed:      seed,
		HorizonMS: durMS,
	}
	if lps != 1 {
		sp.Sync = f.Sync
	}
	return sp
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"approxsim/internal/core"
	"approxsim/internal/metrics"
	"approxsim/internal/nn"
	"approxsim/internal/scenario"
)

// simWorkload is one of the five workloads whose operation is a whole
// scenario.Run call on a spec written as JSON text.
type simWorkload struct {
	name string
	// spec writes the spec for one sub-seed. seq asks for the lps=1 form of
	// the same experiment: the determinism reference of a multi-LP workload.
	spec func(sub uint64, quick, seq bool) string
	// seqRef: after measuring, run the lps=1 form of the first spec and
	// require byte-identical Metrics.
	seqRef bool
	// hybrid: train models in set-up, run with them, and afterwards compare
	// against a full packet-level run of the first spec.
	hybrid bool
	// collective: every rep must finish at least one collective iteration.
	collective bool
}

var simWorkloads = []simWorkload{
	{name: "full_clos", spec: closSpec("full")},
	{name: "hybrid_clos", spec: closSpec("hybrid"), hybrid: true},
	{name: "pdes_seq", spec: leafSpineSpec(1, "")},
	{name: "pdes_nullmsg", spec: leafSpineSpec(2, "nullmsg"), seqRef: true},
	{name: "pdes_barrier_ring", spec: ringSpec, seqRef: true, collective: true},
}

// Every rep of a run gets its own sub-seed, so a run averages over as many
// generated traffic mixes as it has reps and no single heavy-tailed draw
// decides the result.
func subSeed(seed uint64, i int) uint64 { return 1000*seed + uint64(i) }

func closSpec(mode string) func(uint64, bool, bool) string {
	return func(sub uint64, quick, _ bool) string {
		clusters, horizon := 8, 10
		if quick {
			clusters, horizon = 4, 3
		}
		return fmt.Sprintf(`{"mode":%q,"topology":{"clusters":%d},"workload":{"load":0.6},"seed":%d,"horizon_ms":%d}`,
			mode, clusters, sub, horizon)
	}
}

func leafSpineSpec(lps int, sync string) func(uint64, bool, bool) string {
	return func(sub uint64, quick, seq bool) string {
		racks, horizon := 8, 20
		if quick {
			racks, horizon = 4, 2
		}
		engine := fmt.Sprintf(`"lps":%d,"sync":%q`, lps, sync)
		if seq || lps == 1 {
			engine = `"lps":1`
		}
		return fmt.Sprintf(`{"mode":"pdes","topology":{"racks":%d},"workload":{"load":0.6},%s,"seed":%d,"horizon_ms":%d}`,
			racks, engine, sub, horizon)
	}
}

// ringSpec is collective-only and the same for every seed, on purpose. The
// ring is dependency-driven, so one lost segment stalls every rank for a 10 ms
// RTO: with Poisson background traffic (0 to 4 of 8 iterations finish at load
// 0.1) or with fault windows moved by the seed (1, 2 or 7 of 8) the work done
// in 40 ms depends on the draw far more than on the code. This fixed schedule
// loses 21 packets to the two faults and still finishes all 8 iterations.
func ringSpec(sub uint64, quick, seq bool) string {
	engine := `"lps":2,"sync":"barrier"`
	if seq {
		engine = `"lps":1`
	}
	if quick {
		return fmt.Sprintf(`{"mode":"pdes","topology":{"racks":4},"workload":{"load":0,"collective":"ring:size=32KB,iters=2,hosts=8,gap=50us"},`+
			`"faults":"link:tor0-spine1@1ms+1ms,detect=50us;switch:spine2@3ms+1ms,detect=50us",%s,"seed":%d,"horizon_ms":6}`, engine, sub)
	}
	return fmt.Sprintf(`{"mode":"pdes","topology":{"racks":8},"workload":{"load":0,"collective":"ring:size=1MB,iters=8,hosts=16,gap=50us"},`+
		`"faults":"link:tor0-spine1@5ms+10ms,detect=50us;switch:spine2@20ms+5ms,detect=50us",%s,"seed":%d,"horizon_ms":40}`, engine, sub)
}

// The hybrid models are trained from one fixed capture, not from --seed: a
// model is configuration the user brings, and one retrained per seed changes
// the hybrid run's event count threefold, which would drown every code change.
// The capture seed lies outside every evaluated sub-seed range in practice.
const trainSeed = 1<<40 + 1

// accuracyLimitKS is the stated accuracy of the speed-up: a hybrid run whose
// RTT distribution is further than this from packet-level truth counts as a
// failed operation. This code measures 0.06 to 0.29 over seeds 1..12.
const accuracyLimitKS = 0.6

func decodeSpec(text string) (scenario.Spec, error) {
	var sp scenario.Spec
	dec := json.NewDecoder(strings.NewReader(text))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

// trainModels is the paper's workflow steps 1 and 2 at the Fig. 5 model size:
// capture one cluster's boundary in a small full run, fit 1x16 LSTMs.
func trainModels(quick bool) (*core.Models, time.Duration, error) {
	horizon, batches := 5, 250
	if quick {
		horizon, batches = 2, 30
	}
	sp, err := decodeSpec(fmt.Sprintf(
		`{"mode":"full","topology":{"clusters":2},"workload":{"load":0.4},"seed":%d,"horizon_ms":%d,"capture":"cluster"}`,
		uint64(trainSeed), horizon))
	if err != nil {
		return nil, 0, err
	}
	capture, err := scenario.Run(sp)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	models, err := core.TrainModels(capture.Run.Records, sp.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: 16, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: batches, Batch: 16, BPTT: 16, Seed: trainSeed},
		Seed: trainSeed,
	})
	return models, time.Since(start), err
}

// simRun is the state one workload run carries from set-up to verification.
type simRun struct {
	w      simWorkload
	opt    options
	rec    *recorder
	models *core.Models
	first  *repResult // warm-up rep on sub-seed 0: the determinism reference
}

// repResult is one scenario.Run call as the benchmark saw it.
type repResult struct {
	wall    time.Duration
	metrics []byte // json.Marshal(res.Metrics): the bytes the server would cache
	res     *scenario.Result
}

// rep is the timed operation: decode the JSON text, validate and hash it, run
// it, encode the deterministic block. The spans are the benchmark's own.
func (s *simRun) rep(text string, rec *recorder, op int, extra ...scenario.RunOption) (*repResult, error) {
	root := rec.begin("rep", -1, op)
	defer rec.end(root)
	start := time.Now()

	id := rec.begin("validate_key", root, op)
	sp, err := decodeSpec(text)
	if err == nil {
		_, err = sp.Key()
	}
	rec.end(id)
	if err != nil {
		return nil, err
	}

	opts := extra
	if s.models != nil {
		opts = append([]scenario.RunOption{scenario.WithModels(s.models)}, extra...)
	}
	id = rec.begin("run", root, op)
	res, err := scenario.Run(sp, opts...)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("encode", root, op)
	blob, err := json.Marshal(res.Metrics)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return &repResult{wall: time.Since(start), metrics: blob, res: res}, nil
}

// check applies the per-rep correctness rules.
func (s *simRun) check(r *repResult) error {
	m := r.res.Metrics
	if m.Completed == 0 {
		return errors.New("no flow completed")
	}
	if s.w.hybrid && m.RTTSamples == 0 {
		return errors.New("hybrid run observed no RTT sample")
	}
	if s.w.collective && m.CollectiveIters == 0 {
		return errors.New("the collective finished no iteration")
	}
	return nil
}

// setupPass is everything before the first timed rep: for hybrid_clos the
// capture run and the training, for every workload one warm-up rep (heap
// growth, page faults) whose result becomes the determinism reference.
func (s *simRun) setupPass() error {
	if s.w.hybrid {
		models, _, err := trainModels(s.opt.quick)
		if err != nil {
			return fmt.Errorf("training: %w", err)
		}
		s.models = models
	}
	r, err := s.rep(s.w.spec(subSeed(s.opt.seed, 0), s.opt.quick, false), nil, 0)
	if err != nil {
		return fmt.Errorf("warm-up rep: %w", err)
	}
	s.first = r
	return nil
}

const setupPasses = 3

func runSim(w simWorkload, opt options) (*outcome, error) {
	out := newOutcome()
	s := &simRun{w: w, opt: opt}
	if opt.trace {
		s.rec = newRecorder()
	}

	// Set up several times and report the median, so one cold page cache or
	// one scheduler hiccup does not decide setup_s.
	var setups []float64
	for i := 0; i < setupPasses; i++ {
		start := time.Now()
		if err := s.setupPass(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))
	out.digest = digestOf(s.first.metrics)

	var (
		walls    []float64 // ms, every untraced timed rep
		rates    []float64 // simulated seconds per wall second, same reps
		overhead []float64 // traced wall over untraced wall, per spec (traced pass only)
		busy     time.Duration
		tr       tracedTotals
	)
	budget := time.Duration(opt.seconds * float64(time.Second))
	minReps := 3
	if opt.trace {
		minReps = 2 // pairs
	}
	for i := 0; busy < budget || i < minReps; i++ {
		text := w.spec(subSeed(opt.seed, i), opt.quick, false)
		// A traced pass runs each spec twice, tracing on and off in
		// alternating order, so the overhead is a paired comparison.
		order := []bool{false}
		if opt.trace {
			order = []bool{i%2 == 0, i%2 != 0}
		}
		var pair [2]time.Duration // untraced, traced
		for _, traced := range order {
			runtime.GC() // each rep starts from a collected heap, as a fresh process would
			var (
				r   *repResult
				err error
			)
			if traced {
				r, err = s.tracedRep(text, i+1, &tr)
			} else {
				r, err = s.rep(text, nil, i+1)
			}
			if err == nil {
				err = s.check(r)
			}
			if err == nil && i == 0 && !bytes.Equal(r.metrics, s.first.metrics) {
				err = errors.New("Metrics bytes differ from the warm-up run of the same spec")
			}
			out.op(err)
			if err != nil {
				busy += time.Second // a failing workload must still terminate
				continue
			}
			busy += r.wall
			if traced {
				pair[1] = r.wall
				continue
			}
			pair[0] = r.wall
			walls = append(walls, millis(r.wall))
			rates = append(rates, r.res.Perf.SimSeconds/r.wall.Seconds())
		}
		if pair[0] > 0 && pair[1] > 0 {
			overhead = append(overhead, float64(pair[1])/float64(pair[0]))
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("%s: every rep failed: %s", w.name, strings.Join(out.failures, "; "))
	}
	// Medians over the reps, not sums: on a shared host one rep in ten runs
	// at half speed, and a mean would carry it into the result.
	out.set("sim_per_wall", median(rates), len(rates))
	out.set("op_ms_p50", median(walls), len(walls))
	out.set("peak_rss_mb", peakRSSMB(), 1) // before verification, which may run a bigger engine

	ref := s.verify(out)

	if opt.trace {
		s.perLayer(out, &tr, ref, overhead)
		if err := s.rec.writeChrome(traceFile()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reference is what the verification run of the first spec measured.
type reference struct {
	wallMS float64
	events uint64
	ks     float64 // hybrid only
	p99err float64 // hybrid only
}

// verify runs the independent reference of the first spec — lps=1 for the
// multi-LP workloads, full packet level for hybrid_clos — and counts it as one
// more operation.
func (s *simRun) verify(out *outcome) *reference {
	if !s.w.seqRef && !s.w.hybrid {
		return nil
	}
	plain := &simRun{w: s.w, opt: s.opt} // no models: the reference never uses them
	text := s.w.spec(subSeed(s.opt.seed, 0), s.opt.quick, true)
	if s.w.hybrid {
		text = closSpec("full")(subSeed(s.opt.seed, 0), s.opt.quick, false)
	}
	runtime.GC()
	r, err := plain.rep(text, nil, 0)
	if err != nil {
		out.op(fmt.Errorf("reference run: %w", err))
		return nil
	}
	ref := &reference{wallMS: millis(r.wall), events: r.res.Perf.Events}
	switch {
	case s.w.seqRef:
		if !bytes.Equal(r.metrics, s.first.metrics) {
			err = errors.New("Metrics bytes differ from the lps=1 run of the same spec")
		}
	case s.w.hybrid:
		var cmp *core.RTTComparison
		cmp, err = core.CompareRTT(r.res.Run, s.first.res.Run, 128)
		if err == nil {
			full, hy := r.res.Metrics.RTTP99Sec, s.first.res.Metrics.RTTP99Sec
			ref.ks, ref.p99err = cmp.KS, math.Abs(hy-full)/full
			if cmp.KS > accuracyLimitKS {
				err = fmt.Errorf("hybrid RTT distribution is KS %.3f from packet-level truth, limit %.2f", cmp.KS, accuracyLimitKS)
			}
		}
	}
	out.op(err)
	return ref
}

// tracedTotals is what the traced reps of one run measured. Rates are taken
// over all of them; counts come from the first one alone (the run's first
// spec), so that for a given seed they repeat exactly.
type tracedTotals struct {
	reps           int
	wall, cpu      time.Duration
	events         uint64
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	predictNS      float64 // summed model-inference wall time
	predictions    float64

	first    scenario.Perf
	firstCPU time.Duration
	snap     map[string]map[string]json.RawMessage // the first traced rep's registry
}

// tracedRep is rep with the per-layer instruments on: the benchmark's spans,
// the engine's metrics registry, and runtime deltas around the call.
func (s *simRun) tracedRep(text string, op int, tr *tracedTotals) (*repResult, error) {
	reg := metrics.NewRegistry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	r, err := s.rep(text, s.rec, op, scenario.WithRegistry(reg))
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	snap := snapshotMap(reg)
	if tr.reps == 0 {
		tr.first, tr.firstCPU, tr.snap = r.res.Perf, cpu, snap
	}
	tr.reps++
	tr.wall += r.wall
	tr.cpu += cpu
	tr.events += r.res.Perf.Events
	tr.mallocs += after.Mallocs - before.Mallocs
	tr.bytes += after.TotalAlloc - before.TotalAlloc
	tr.gcCycles += after.NumGC - before.NumGC
	tr.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	count, mean := snapHist(snap, "approx", "prediction_wall_ns")
	tr.predictions += count
	tr.predictNS += count * mean
	return r, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshotMap reads a registry through its JSON form, the one view of it that
// is a documented output format.
func snapshotMap(reg *metrics.Registry) map[string]map[string]json.RawMessage {
	blob, err := json.Marshal(reg.Snapshot())
	if err != nil {
		return nil
	}
	var m map[string]map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil
	}
	return m
}

func snapNum(m map[string]map[string]json.RawMessage, group, name string) float64 {
	var v float64
	_ = json.Unmarshal(m[group][name], &v) // absent or non-numeric reads 0: the layer was not used
	return v
}

func snapHist(m map[string]map[string]json.RawMessage, group, name string) (count, mean float64) {
	var h struct {
		Count float64 `json:"count"`
		Mean  float64 `json:"mean"`
	}
	_ = json.Unmarshal(m[group][name], &h) // as snapNum
	return h.Count, h.Mean
}

// perLayer fills in every per-layer metric: counts from the first traced rep,
// rates over all traced reps, probe results, and the outside-in attribution
// built from those.
func (s *simRun) perLayer(out *outcome, tr *tracedTotals, ref *reference, overhead []float64) {
	n := tr.reps
	if n == 0 {
		return
	}
	wallNS := float64(tr.wall)
	events := float64(tr.events)
	count := func(group, name string) float64 { return snapNum(tr.snap, group, name) }

	out.set("des.events", float64(tr.first.Events), 1)
	out.set("des.events_per_s", events/tr.wall.Seconds(), n)
	out.set("des.heap_high_water", count("des", "heap_high_water"), 1)
	if hits, misses := count("des", "pool_hits"), count("des", "pool_misses"); hits+misses > 0 {
		out.set("des.pool_miss_ratio", misses/(hits+misses), 1)
	}
	for _, name := range []string{"tx_packets", "drops", "queue_high_water_bytes"} {
		out.set("netsim."+name, count("netsim", name), 1)
	}
	for _, name := range []string{"retransmissions", "timeouts", "flows_completed"} {
		out.set("tcp."+name, count("tcp", name), 1)
	}
	out.set("pdes.null_messages", float64(tr.first.Nulls), 1)
	out.set("pdes.barriers", float64(tr.first.Barriers), 1)
	out.set("pdes.cross_lp_packets", float64(tr.first.CrossPkts), 1)
	out.set("pdes.parked_arrivals", float64(tr.first.ParkedArrivals), 1)
	out.set("pdes.eit_stalls", count("pdes", "eit_stalls"), 1)
	out.set("pdes.lp_load_imbalance", count("pdes", "lp_load_imbalance"), 1)
	if tr.first.CrossPkts > 0 {
		out.set("pdes.nulls_per_cross_pkt", float64(tr.first.Nulls)/float64(tr.first.CrossPkts), 1)
	}
	switch {
	case s.w.seqRef && ref != nil:
		out.set("pdes.wall_over_seq", millis(s.first.wall)/ref.wallMS, 1)
		out.set("pdes.extra_events_ratio", float64(tr.first.Events)/float64(ref.events), 1)
	case s.w.name == "pdes_seq":
		out.set("pdes.wall_over_seq", 1, 1)
		out.set("pdes.extra_events_ratio", 1, 1)
	}

	out.set("run.ns_per_event", wallNS/events, n)
	out.set("run.allocs_per_event", float64(tr.mallocs)/events, n)
	out.set("run.bytes_per_event", float64(tr.bytes)/events, n)
	out.set("run.gc_cycles", float64(tr.gcCycles)/float64(n), n)
	out.set("run.gc_pause_ms", millis(tr.gcPause)/float64(n), n)
	out.set("run.cpu_per_wall", float64(tr.cpu)/wallNS, n)

	if s.w.hybrid {
		out.set("approx.model_invocations", count("approx", "model_invocations"), 1)
		if tr.predictions > 0 {
			out.set("approx.predict_ns_mean", tr.predictNS/tr.predictions, int(tr.predictions))
		}
		out.set("approx.predict_share", tr.predictNS/wallNS, n)
		if ref != nil {
			// Both sides of these are runs of the first spec.
			out.set("approx.accuracy_ks", ref.ks, 1)
			out.set("approx.rtt_p99_relerr", ref.p99err, 1)
			out.set("approx.event_ratio", float64(ref.events)/float64(s.first.res.Perf.Events), 1)
			out.set("approx.speedup", ref.wallMS/millis(s.first.wall), 1)
		}
	}

	// Each ratio is one spec run twice, back to back: the host has little
	// time to change speed between the two.
	out.set("trace.overhead_pct", 100*(median(overhead)-1), len(overhead))
	out.set("trace.spans", float64(len(s.rec.spans)), 1)
	for name, ms := range s.rec.selfMillis() {
		out.set("trace.self_ms."+name, ms/float64(n), n)
	}

	tcpSelfPerRx := runProbes(out, s.opt.quick)

	// Outside-in attribution for the first traced rep: a probe's self cost
	// times that rep's count of the unit, over the CPU time the rep used. An
	// estimate — the probes run each layer on friendlier inputs than a
	// congested fabric gives it.
	cpuNS := float64(tr.firstCPU)
	if cpuNS <= 0 {
		return
	}
	des := out.values["des.ns_per_event"] * float64(tr.first.Events) / cpuNS
	netsim := out.values["netsim.self_ns_per_hop"] * count("netsim", "tx_packets") / cpuNS
	tcp := tcpSelfPerRx * count("netsim", "rx_packets") / cpuNS
	sync := (out.values["pdes.null_ns"]*float64(tr.first.Nulls) + out.values["pdes.barrier_ns"]*float64(tr.first.Barriers)) / cpuNS
	_, predictMean := snapHist(tr.snap, "approx", "prediction_wall_ns")
	nnShare := predictMean * count("approx", "model_invocations") / cpuNS
	out.set("share_est.des", des, 1)
	out.set("share_est.netsim", netsim, 1)
	out.set("share_est.tcp", tcp, 1)
	out.set("share_est.sync", sync, 1)
	out.set("share_est.nn", nnShare, 1)
	out.set("share_est.other", 1-des-netsim-tcp-sync-nnShare, 1)
}

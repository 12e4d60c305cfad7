package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/netsim"
	"approxsim/internal/nn"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/scenario"
	"approxsim/internal/server"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// A probe is a fixed-count loop over one layer's public constructors and
// functions, run only in the traced pass. Probes do not depend on the workload
// or the seed: they price one unit of a layer's work (an event, a hop, a
// segment, a null message) so the workload's counts can be turned into shares.

// measure runs fn and returns its wall time and the heap objects and bytes it
// allocated.
func measure(fn func()) (wall time.Duration, mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// runProbes fills in every probe metric. It also returns the tcp probe's self
// cost per packet delivered to a host, which feeds the attribution but is not
// a metric of its own.
func runProbes(out *outcome, quick bool) (tcpSelfPerRx float64) {
	scale := 1
	if quick {
		scale = 50
	}
	probeDES(out, scale)
	probeNetsim(out, scale)
	tcpSelfPerRx = probeTCP(out, scale)
	probeTopology(out, scale, quick)
	probePDES(out, quick)
	probeNN(out, scale, quick)
	probeScenario(out, scale, quick)
	probeServerInproc(out, scale, quick)
	return tcpSelfPerRx
}

func drain(k *des.Kernel) {
	for k.Step() {
	}
}

func probeDES(out *outcome, scale int) {
	n := 1_000_000 / scale

	// One self-rescheduling event: heap depth 1, the pool's best case.
	k := des.NewKernel()
	fired := 0
	var again func()
	again = func() {
		if fired++; fired < n {
			k.Schedule(1, again)
		}
	}
	k.Schedule(1, again)
	wall, mallocs, _ := measure(func() { drain(k) })
	out.set("des.ns_per_event", float64(wall)/float64(n), n)
	out.set("des.allocs_per_event", float64(mallocs)/float64(n), n)

	// 4096 pending timers with distinct periods: every pop and push sifts.
	k = des.NewKernel()
	fired = 0
	for i := 0; i < 4096; i++ {
		period := des.Time(1000 + (i*7919)%1000)
		var tick func()
		tick = func() {
			if fired++; fired < n {
				k.Schedule(period, tick)
			}
		}
		k.Schedule(period, tick)
	}
	wall, _, _ = measure(func() { drain(k) })
	out.set("des.ns_per_event_deep", float64(wall)/float64(k.Stats().Executed), int(k.Stats().Executed))

	// The RTO idiom: cancel the pending timer and re-arm it on every ack,
	// while the clock advances now and then.
	k = des.NewKernel()
	noop := func() {}
	var timer *des.Event
	wall, _, _ = measure(func() {
		for i := 0; i < n; i++ {
			k.Cancel(timer)
			timer = k.Schedule(1000, noop)
			if i%64 == 0 {
				k.Schedule(10, noop)
				k.Step()
			}
		}
	})
	out.set("des.cancel_rearm_ns", float64(wall)/float64(n), n)
}

// line wires host0 - switch - host1. hostBps is both NICs' rate and egressBps
// the switch ports' rate; a switch slower than the NIC that feeds it overflows
// its queue.
func line(k *des.Kernel, hostBps, egressBps int64) (h0, h1 *netsim.Host, sw *netsim.Switch) {
	h0, h1 = netsim.NewHost(k, 0, 0), netsim.NewHost(k, 1, 1)
	sw = netsim.NewSwitch(k, 2, netsim.RouterFunc(func(_ packet.NodeID, p *packet.Packet) (int, bool) {
		return int(p.Dst), true // port i faces host i
	}))
	nic := netsim.LinkConfig{BandwidthBps: hostBps, PropDelay: des.Microsecond, QueueBytes: 1 << 26}
	egress := netsim.LinkConfig{BandwidthBps: egressBps, PropDelay: des.Microsecond, QueueBytes: 1 << 20}
	netsim.Connect(h0.AttachNIC(nic), sw.AddPort(egress))
	netsim.Connect(h1.AttachNIC(nic), sw.AddPort(egress))
	return h0, h1, sw
}

const gbps = 1_000_000_000

// lineBlast sends n MTU packets from host0 to host1 at host0's line rate and
// returns wall time per hop (one hop = one port transmission). Delivered
// packets are reused, so in the loss-free case the probe itself allocates
// nothing and every allocation seen is netsim's.
func lineBlast(n int, egressBps int64) (nsPerHop, allocsPerHop, bytesPerHop, eventsPerHop float64, hops uint64) {
	k := des.NewKernel()
	h0, h1, sw := line(k, 10*gbps, egressBps)
	var free []*packet.Packet
	h1.Handler = func(p *packet.Packet) { free = append(free, p) }
	gap := h0.NIC().Config().SerializationDelay(packet.MSS + packet.HeaderBytes)
	sent := 0
	var send func()
	send = func() {
		var p *packet.Packet
		if len(free) > 0 {
			p, free = free[len(free)-1], free[:len(free)-1]
			p.TTL, p.Hops, p.SendTime = 0, 0, 0
		} else {
			p = &packet.Packet{Src: 0, Dst: 1, FlowID: 1, PayloadLen: packet.MSS}
		}
		h0.Send(p)
		if sent++; sent < n {
			k.Schedule(gap, send)
		}
	}
	k.Schedule(0, send)
	wall, mallocs, bytes := measure(func() { drain(k) })
	hops = h0.NIC().Stats().TxPackets + sw.Port(1).Stats().TxPackets
	return float64(wall) / float64(hops), float64(mallocs) / float64(hops), float64(bytes) / float64(hops),
		float64(k.Stats().Executed) / float64(hops), hops
}

func probeNetsim(out *outcome, scale int) {
	n := 250_000 / scale
	ns, allocs, bytes, eventsPerHop, hops := lineBlast(n, 10*gbps)
	out.set("netsim.ns_per_hop", ns, int(hops))
	out.set("netsim.allocs_per_hop", allocs, int(hops))
	out.set("netsim.bytes_per_hop", bytes, int(hops))
	out.set("netsim.self_ns_per_hop", ns-eventsPerHop*out.values["des.ns_per_event"], int(hops))
	// Twice the switch's line rate: half the packets take the tail-drop path.
	ns, _, _, _, hops = lineBlast(n, 5*gbps)
	out.set("netsim.ns_per_hop_overload", ns, int(hops))
}

// tcpLine is line with a stack on each host.
func tcpLine() (k *des.Kernel, h0, h1 *netsim.Host, sw *netsim.Switch, sender *tcp.Stack) {
	k = des.NewKernel()
	h0, h1, sw = line(k, 10*gbps, 10*gbps)
	sender = tcp.NewStack(h0, tcp.Config{})
	tcp.NewStack(h1, tcp.Config{})
	return
}

func probeTCP(out *outcome, scale int) (selfPerRx float64) {
	// One bulk flow: the per-segment steady state.
	size := int64(64<<20) / int64(scale)
	k, h0, h1, sw, sender := tcpLine()
	sender.StartFlow(1, size, 1, nil)
	wall, mallocs, _ := measure(func() { drain(k) })
	segments := float64(size) / float64(packet.MSS)
	hops := h0.NIC().Stats().TxPackets + h1.NIC().Stats().TxPackets + sw.Port(0).Stats().TxPackets + sw.Port(1).Stats().TxPackets
	self := float64(wall) - float64(hops)*out.values["netsim.ns_per_hop"]
	out.set("tcp.ns_per_segment", float64(wall)/segments, int(segments))
	out.set("tcp.allocs_per_segment", float64(mallocs)/segments, int(segments))
	out.set("tcp.self_ns_per_segment", self/segments, int(segments))
	delivered := atomic.LoadUint64(&h0.RxPackets) + atomic.LoadUint64(&h1.RxPackets)

	// Many two-segment flows, one after another: per-connection state.
	flows := 2000 / scale
	k, _, _, _, sender = tcpLine()
	started := 0
	var next func(tcp.FlowResult)
	next = func(tcp.FlowResult) {
		if started++; started <= flows {
			sender.StartFlow(1, 2*int64(packet.MSS), uint64(started), next)
		}
	}
	next(tcp.FlowResult{})
	wall, _, _ = measure(func() { drain(k) })
	out.set("tcp.ns_per_short_flow", float64(wall)/float64(flows), flows)

	return self / float64(delivered)
}

func probeTopology(out *outcome, scale int, quick bool) {
	clusters := 8
	if quick {
		clusters = 2
	}
	cfg := topology.DefaultClosConfig(clusters)
	var builds []float64
	var topo *topology.Topology
	for i := 0; i < 10; i++ {
		start := time.Now()
		t, err := topology.Build(des.NewKernel(), cfg)
		if err != nil {
			panic(fmt.Sprintf("probe: building the default %d-cluster Clos: %v", clusters, err))
		}
		builds = append(builds, millis(time.Since(start)))
		topo = t
	}
	out.set("topology.build_ms", median(builds), len(builds))

	n := 2_000_000 / scale
	agg := topo.Aggs[0].NodeID()
	far := packet.HostID(cfg.NumHosts() - 1)
	p := &packet.Packet{Src: 0, Dst: far}
	start := time.Now()
	for i := 0; i < n; i++ {
		p.FlowID = uint64(i)
		topo.Route(agg, p)
	}
	out.set("topology.route_ns", float64(time.Since(start))/float64(n), n)

	hosts := make([]packet.HostID, cfg.NumHosts())
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	var gens []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		_, err := traffic.GenerateSpecs(traffic.Config{
			Load: 0.6, Seed: uint64(i + 1),
			HostBandwidthBps: cfg.HostLink.BandwidthBps,
			ClusterSize:      cfg.ToRsPerCluster * cfg.ServersPerToR,
		}, hosts, 20*des.Millisecond)
		if err != nil {
			panic(fmt.Sprintf("probe: generating traffic: %v", err))
		}
		gens = append(gens, millis(time.Since(start)))
	}
	out.set("traffic.gen_ms", median(gens), len(gens))
}

// mustRun runs a probe spec; a probe spec that stops validating is a bug in
// the benchmark or an API break, not a measurement.
func mustRun(text string, opts ...scenario.RunOption) *scenario.Result {
	sp, err := decodeSpec(text)
	if err == nil {
		var res *scenario.Result
		if res, err = scenario.Run(sp, opts...); err == nil {
			return res
		}
	}
	panic(fmt.Sprintf("probe spec %s: %v", text, err))
}

func probePDES(out *outcome, quick bool) {
	// A near-idle two-LP run (load 0.01: a handful of flows, yet every
	// cross-LP channel live) is almost nothing but synchronization: 20 ms of
	// virtual time crossed by null messages or barrier windows alone.
	horizon := 20
	if quick {
		horizon = 2
	}
	idle := func(sync string) *scenario.Result {
		return mustRun(fmt.Sprintf(`{"mode":"pdes","topology":{"racks":4},"workload":{"load":0.01},"lps":2,"sync":%q,"seed":1,"horizon_ms":%d}`,
			sync, horizon))
	}
	if r := idle("nullmsg"); r.Perf.Nulls > 0 {
		out.set("pdes.null_ns", r.Perf.WallSeconds*1e9/float64(r.Perf.Nulls), int(r.Perf.Nulls))
	}
	if r := idle("barrier"); r.Perf.Barriers > 0 {
		out.set("pdes.barrier_ns", r.Perf.WallSeconds*1e9/float64(r.Perf.Barriers), int(r.Perf.Barriers))
	}

	// Time Warp is not an end-to-end workload (its wall-clock depends on how
	// the host schedules the two LPs); this small run is informational.
	busy := func(engine string, opts ...scenario.RunOption) *scenario.Result {
		return mustRun(fmt.Sprintf(`{"mode":"pdes","topology":{"racks":4},"workload":{"load":0.6},%s,"seed":1,"horizon_ms":%d}`,
			engine, horizon/5+1), opts...)
	}
	seq := busy(`"lps":1`)
	reg := metrics.NewRegistry()
	tw := busy(`"lps":2,"sync":"timewarp"`, scenario.WithRegistry(reg))
	snap := snapshotMap(reg)
	out.set("pdes.tw_wall_ratio", tw.Perf.WallSeconds/seq.Perf.WallSeconds, 1)
	out.set("pdes.tw_rollbacks", snapNum(snap, "pdes", "rollbacks"), 1)
	if executed := snapNum(snap, "des", "events_executed"); executed > 0 {
		out.set("pdes.tw_rolled_back_ratio", snapNum(snap, "pdes", "rolled_back_events")/executed, 1)
	}
}

func probeNN(out *outcome, scale int, quick bool) {
	x := make([]float64, 12)
	predict := func(hidden, layers, n int) (ns, allocs float64) {
		m := nn.NewModel(len(x), hidden, layers, rng.New(1))
		st := m.NewState()
		wall, mallocs, _ := measure(func() {
			for i := 0; i < n; i++ {
				m.Predict(x, st)
			}
		})
		return float64(wall) / float64(n), float64(mallocs) / float64(n)
	}
	n := 200_000 / scale
	ns, allocs := predict(16, 1, n)
	out.set("nn.predict_ns_h16", ns, n)
	out.set("nn.predict_allocs", allocs, n)
	ns, _ = predict(128, 2, n/100)
	out.set("nn.predict_ns_h128", ns, n/100)

	_, trained, err := trainModels(quick)
	if err != nil {
		panic(fmt.Sprintf("probe: training: %v", err))
	}
	out.set("nn.train_ms", millis(trained), 1)
}

func probeScenario(out *outcome, scale int, quick bool) {
	fam := sweepFamily(1, quick)

	n := 2000 / scale
	start := time.Now()
	for i := 0; i < n; i++ {
		sp, err := decodeSpec(fam[1])
		if err == nil {
			_ = sp.Normalized()
			_, err = sp.Key() // Key validates and normalizes again, as Run does
		}
		if err != nil {
			panic(fmt.Sprintf("probe spec %s: %v", fam[1], err))
		}
	}
	out.set("scenario.key_us", float64(time.Since(start))/float64(n)/1000, n)

	timed := func(text string, opts ...scenario.RunOption) float64 {
		start := time.Now()
		mustRun(text, opts...)
		return millis(time.Since(start))
	}
	cold := timed(fam[1])
	pool := scenario.NewPool(8)
	first := timed(fam[0], scenario.WithPool(pool))
	var forks []float64
	for _, text := range fam[1:] {
		forks = append(forks, timed(text, scenario.WithPool(pool)))
	}
	out.set("scenario.cold_ms", cold, 1)
	out.set("scenario.pool_first_ms", first, 1)
	out.set("scenario.pool_fork_ms", median(forks), len(forks))
	out.set("scenario.fork_over_cold", median(forks)/cold, len(forks))
}

// probeServerInproc times a cache hit through the handler alone: no socket,
// no HTTP parsing. The serve_sweep workload subtracts it from its client-side
// hit latency.
func probeServerInproc(out *outcome, scale int, quick bool) {
	srv := server.New(server.Config{Workers: 2})
	srv.Start()
	h := srv.Handler()
	body := sweepFamily(1, true)[0] // the small spec: only the hit is timed
	post := func() int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		return w.Code
	}
	if code := post(); code != http.StatusOK {
		panic(fmt.Sprintf("probe: in-process POST answered %d", code))
	}
	n := 5000 / scale
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		post()
		us[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	out.set("server.hit_us_inproc", median(us), n)
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"approxsim/internal/scenario"
	"approxsim/internal/server"
)

// serve_sweep is the sweep user's traffic against the scenario server over a
// real loopback socket: a closed loop of two keep-alive clients. Work comes in
// blocks of two families, one per client. In a block's first phase each client
// posts its family's healthy baseline (a cold build, warmed to the fork point)
// and then three fault variants that differ only after the warm point (forks
// of that baseline); in the second phase each client re-posts its four specs
// twelve times (result-cache hits). The phases do not overlap, so a hit is
// never timed while a simulation holds both cores.

const (
	sweepClients = 2
	sweepRounds  = 12
)

// sweepFamily writes one family's four specs: the baseline, then the variants.
func sweepFamily(familySeed uint64, quick bool) []string {
	racks, horizon, warm := 8, 6, 3
	faults := []string{
		"",
		"link:tor0-spine1@3500us+1ms,detect=50us",
		"switch:spine2@4ms+1ms,detect=50us",
		"link:tor3-spine0@4500us+500us,detect=50us",
	}
	if quick {
		racks, horizon, warm = 4, 2, 1
		faults = []string{
			"",
			"link:tor0-spine1@1200us+300us,detect=50us",
			"switch:spine2@1400us+300us,detect=50us",
			"link:tor3-spine0@1500us+200us,detect=50us",
		}
	}
	specs := make([]string, len(faults))
	for i, f := range faults {
		if f != "" {
			f = fmt.Sprintf(`"faults":%q,`, f)
		}
		specs[i] = fmt.Sprintf(`{"mode":"pdes","topology":{"racks":%d},"workload":{"load":0.6},%s"lps":2,"seed":%d,"horizon_ms":%d,"warm_ms":%d}`,
			racks, f, familySeed, horizon, warm)
	}
	return specs
}

func sweepHorizonSeconds(quick bool) float64 {
	if quick {
		return 0.002
	}
	return 0.006
}

// sweepServer is the program under test: the scenario service behind a
// loopback listener, in this process.
type sweepServer struct {
	http   *http.Server
	base   string
	served chan struct{} // closed when Serve has returned
}

func startSweepServer() (*sweepServer, error) {
	srv := server.New(server.Config{Workers: sweepClients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sweepServer{
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	srv.Start()
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // always ErrServerClosed: close is the only way out
	}()
	return s, nil
}

func (s *sweepServer) close() {
	_ = s.http.Close() // a listener that is already gone is fine
	<-s.served
}

// The replies are decoded into the benchmark's own structs: the JSON field
// names are the service's public interface, the Go types are not.
type runReply struct {
	Key        string          `json:"key"`
	RunID      string          `json:"run_id"`
	Cached     bool            `json:"cached"`
	ForkReused bool            `json:"fork_reused"`
	Metrics    json.RawMessage `json:"metrics"`
	Error      string          `json:"error"`
}

type runRecord struct {
	Disposition string  `json:"disposition"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ExecMS      float64 `json:"exec_ms"`
}

type requestClass int

const (
	classCold requestClass = iota
	classFork
	classHit
)

// sweep is one serve_sweep run.
type sweep struct {
	opt     options
	srv     *sweepServer
	clients [sweepClients]*http.Client
	rec     *recorder

	mu         sync.Mutex
	out        *outcome
	firstByKey map[string][]byte
	latency    [3][]float64 // ms per class
	all        []float64
	residual   []float64 // ms: latency - queue wait - exec, fresh runs of traced blocks
	queueWait  []float64
	exec       []float64
	ops        int
}

func (s *sweep) get(c int, path string, into any) error {
	resp, err := s.clients[c].Get(s.srv.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// post is the timed operation: POST one spec, read and decode the whole reply.
// traced also fetches the run record afterwards (outside the timed interval)
// and rebuilds the request's spans from it.
func (s *sweep) post(c int, body string, traced bool) {
	start := time.Now()
	reply, err := s.roundTrip(c, body)
	took := time.Since(start)

	class := classCold
	switch {
	case reply.Cached:
		class = classHit
	case reply.ForkReused:
		class = classFork
	}
	var rec runRecord
	if err == nil && traced {
		err = s.get(c, "/v1/runs/"+reply.RunID, &rec)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	if err == nil {
		if first, ok := s.firstByKey[reply.Key]; !ok {
			s.firstByKey[reply.Key] = reply.Metrics
		} else if !bytes.Equal(first, reply.Metrics) {
			err = fmt.Errorf("Metrics bytes of key %.12s differ from the first reply", reply.Key)
		}
	}
	s.out.op(err)
	if err != nil {
		return
	}
	ms := millis(took)
	s.latency[class] = append(s.latency[class], ms)
	s.all = append(s.all, ms)
	if traced {
		at := start.Sub(s.rec.t0)
		queue := time.Duration(rec.QueueWaitMS * float64(time.Millisecond))
		exec := time.Duration(rec.ExecMS * float64(time.Millisecond))
		root := s.rec.add("http", at, took, -1, s.ops)
		s.rec.add("queue_wait", at, queue, root, s.ops)
		s.rec.add("exec", at+queue, exec, root, s.ops)
		if class != classHit {
			s.residual = append(s.residual, ms-rec.QueueWaitMS-rec.ExecMS)
			s.queueWait = append(s.queueWait, rec.QueueWaitMS)
			s.exec = append(s.exec, rec.ExecMS)
		}
	}
}

func (s *sweep) roundTrip(c int, body string) (runReply, error) {
	var reply runReply
	resp, err := s.clients[c].Post(s.srv.base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, &reply); err != nil {
		return reply, err
	}
	if reply.Error != "" {
		return reply, errors.New(reply.Error)
	}
	var m struct {
		Completed int `json:"completed"`
	}
	if err := json.Unmarshal(reply.Metrics, &m); err != nil {
		return reply, err
	}
	if m.Completed == 0 {
		return reply, errors.New("no flow completed")
	}
	return reply, nil
}

// block runs one block: family 2b and 2b+1 of this seed, one per client.
func (s *sweep) block(b, rounds int, traced bool) {
	families := make([][]string, sweepClients)
	for c := range families {
		families[c] = sweepFamily(subSeed(s.opt.seed, sweepClients*b+c), s.opt.quick)
	}
	phase := func(perClient func(c int)) {
		var wg sync.WaitGroup
		for c := 0; c < sweepClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				perClient(c)
			}(c)
		}
		wg.Wait()
	}
	phase(func(c int) {
		for _, body := range families[c] {
			s.post(c, body, traced)
		}
	})
	// Collect the simulations' garbage now, so that no concurrent mark phase
	// competes with the two clients for the two cores while hits are timed.
	runtime.GC()
	phase(func(c int) {
		for r := 0; r < rounds; r++ {
			for _, body := range families[c] {
				s.post(c, body, traced)
			}
		}
	})
}

// warmupBlock is far outside the block range a run can reach.
const warmupBlock = 400

func runServeSweep(opt options) (*outcome, error) {
	s := &sweep{opt: opt, out: newOutcome(), firstByKey: map[string][]byte{}}
	for c := range s.clients {
		s.clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	defer func() {
		for _, c := range s.clients {
			c.CloseIdleConnections()
		}
		if s.srv != nil {
			s.srv.close()
		}
	}()
	if opt.trace {
		s.rec = newRecorder()
	}

	// Set-up: start the server and push one throwaway family through every
	// request class, so connections are open and the heap has grown. Done
	// several times; the last server stays for the measurement.
	var setups []float64
	for i := 0; i < setupPasses; i++ {
		start := time.Now()
		if s.srv != nil {
			s.srv.close()
		}
		srv, err := startSweepServer()
		if err != nil {
			return nil, err
		}
		s.srv = srv
		s.block(warmupBlock+i, 1, false)
		setups = append(setups, time.Since(start).Seconds())
	}
	if s.out.failed > 0 {
		return nil, fmt.Errorf("serve_sweep: warm-up failed: %s", strings.Join(s.out.failures, "; "))
	}
	// Only the measured pass counts as operations and samples.
	s.out = newOutcome()
	s.out.set("setup_s", median(setups), len(setups))
	s.latency, s.all, s.ops = [3][]float64{}, nil, 0

	rounds := sweepRounds
	if opt.quick {
		rounds = 2
	}
	var (
		blockMS [2][]float64 // untraced, traced
		rates   []float64    // simulated seconds served per wall second, per block
	)
	budget := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for b := 0; time.Since(start) < budget || b < 2; b++ {
		traced := opt.trace && b%2 == 1
		t, before := time.Now(), len(s.all)
		s.block(b, rounds, traced)
		took := time.Since(t)
		i := 0
		if traced {
			i = 1
		}
		blockMS[i] = append(blockMS[i], millis(took))
		rates = append(rates, float64(len(s.all)-before)*sweepHorizonSeconds(opt.quick)/took.Seconds())
	}
	elapsed := time.Since(start).Seconds()
	out := s.out
	if len(s.all) == 0 {
		return nil, fmt.Errorf("serve_sweep: every request failed: %s", strings.Join(out.failures, "; "))
	}
	// The median block, not the whole pass: one block that met a slow
	// stretch of a shared host must not carry into the result.
	out.set("sim_per_wall", median(rates), len(rates))
	out.set("op_ms_p50", median(s.all), len(s.all))
	out.set("peak_rss_mb", peakRSSMB(), 1)

	// The first family's baseline names the run; its first variant, a forked
	// reply, must equal a pool-less scenario.Run of the same spec byte for byte.
	first := sweepFamily(subSeed(opt.seed, 0), opt.quick)
	var keys [2]string
	for i := range keys {
		sp, err := decodeSpec(first[i])
		if err == nil {
			keys[i], err = sp.Key()
		}
		if err != nil {
			return nil, err
		}
	}
	out.digest = digestOf(s.firstByKey[keys[0]])
	sp, _ := decodeSpec(first[1]) // decoded without error just above
	res, err := scenario.Run(sp)
	if err == nil {
		var direct []byte
		if direct, err = json.Marshal(res.Metrics); err == nil && !bytes.Equal(direct, s.firstByKey[keys[1]]) {
			err = errors.New("a forked reply's Metrics differ from a pool-less scenario.Run of the same spec")
		}
	}
	out.op(err)
	for class, name := range []string{"cold", "fork", "hit"} {
		if len(s.latency[class]) == 0 {
			out.op(fmt.Errorf("no %s reply in the whole pass", name))
		}
	}

	if opt.trace {
		if err := s.perLayer(elapsed, blockMS); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *sweep) perLayer(elapsed float64, blockMS [2][]float64) error {
	out := s.out
	cold, fork, hit := s.latency[classCold], s.latency[classFork], s.latency[classHit]
	out.set("server.cold_ms_p50", median(cold), len(cold))
	out.set("server.fork_ms_p50", median(fork), len(fork))
	out.set("server.fork_ms_p90", percentile(fork, 0.9), len(fork))
	out.set("server.hit_ms_p50", median(hit), len(hit))
	out.set("server.hit_ms_p90", percentile(hit, 0.9), len(hit))
	out.set("server.hit_ms_p99", percentile(hit, 0.99), len(hit))
	out.set("server.req_per_s", float64(len(s.all))/elapsed, len(s.all))
	out.set("server.queue_wait_ms_p50", median(s.queueWait), len(s.queueWait))
	out.set("server.exec_ms_p50", median(s.exec), len(s.exec))
	out.set("server.encode_residual_ms", median(s.residual), len(s.residual))

	var st struct {
		CacheHits   float64 `json:"cache_hits"`
		CacheMisses float64 `json:"cache_misses"`
		DedupJoins  float64 `json:"dedup_joins"`
		Runs        float64 `json:"runs"`
		Pool        struct {
			Reuses float64 `json:"fork_reuses"`
		} `json:"pool"`
	}
	if err := s.get(0, "/v1/stats", &st); err != nil {
		return err
	}
	if st.CacheHits+st.CacheMisses > 0 {
		out.set("server.cache_hit_ratio", st.CacheHits/(st.CacheHits+st.CacheMisses), int(st.CacheHits+st.CacheMisses))
	}
	if st.Runs > 0 {
		out.set("server.fork_reuse_ratio", st.Pool.Reuses/st.Runs, int(st.Runs))
	}
	out.set("server.dedup_joins", st.DedupJoins, 1)

	out.set("trace.overhead_pct", 100*(median(blockMS[1])/median(blockMS[0])-1), len(blockMS[1]))
	out.set("trace.spans", float64(len(s.rec.spans)), 1)
	traced := 0
	for _, sp := range s.rec.spans {
		if sp.Parent < 0 {
			traced++
		}
	}
	for name, ms := range s.rec.selfMillis() {
		out.set("trace.self_ms."+name, ms/float64(traced), traced)
	}

	runProbes(out, s.opt.quick)
	out.set("server.http_overhead_us", 1000*median(hit)-out.values["server.hit_us_inproc"], len(hit))
	return s.rec.writeChrome(traceFile())
}

// Package server exposes the scenario library as a long-running simulation
// service: POST a scenario.Spec as JSON, get its deterministic metrics back.
//
// The server exists for the sweep workflow the paper motivates — many what-if
// variants of one baseline — and exploits determinism twice:
//
//   - Result cache: results are keyed by the spec's canonical hash and the
//     cached value is the marshalled metrics bytes themselves, so a repeated
//     spec is served bit-identically without re-simulating. The cache is LRU
//     with both an entry and a byte bound. In-flight deduplication (one
//     runner per key, followers wait) extends the same guarantee to
//     concurrent duplicates.
//   - Snapshot-fork reuse: pdes-mode specs run through a scenario.Pool, so a
//     fault sweep's variants fork one warmed baseline instead of each
//     cold-starting (see internal/scenario).
//
// The service is fully observable. Every accepted spec becomes a run with an
// ID and a lifecycle record (queued → running → done/failed) carrying its
// spec hash, cache/fork disposition, queue-wait and exec durations, and —
// while in flight — live committed virtual time and event counts bridged
// from the engine's committed-time clock (obs.Progress). GET /metrics
// renders the service registry in Prometheus text exposition via
// metrics.WriteProm, and Config.RequestLog streams one structured JSON line
// per request and per run.
//
// Endpoints (JSON unless noted):
//
//	POST /v1/run          one scenario.Spec        -> RunResponse
//	POST /v1/sweep        {"scenarios":[Spec,...]} -> SweepResponse
//	                      (bodies over 1 MiB are refused with 413)
//	GET  /v1/stats        service counters (requests, cache, pool, workers)
//	GET  /v1/runs         run registry, newest first
//	GET  /v1/runs/{id}    one run record (live progress while in flight)
//	GET  /v1/runs/{id}?watch=1  SSE stream of records until the run ends
//	GET  /metrics         Prometheus text exposition
//	GET  /healthz         readiness probe (503 before Start / after
//	                      BeginShutdown)
package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/obs"
	"approxsim/internal/scenario"
)

// Config sizes the service.
type Config struct {
	// Workers bounds concurrently executing simulations (default 2). Requests
	// beyond it queue; duplicates of an in-flight spec never occupy a worker.
	Workers int
	// CacheSize bounds the result cache in entries (default 256, LRU).
	CacheSize int
	// CacheBytes bounds the result cache by cached payload bytes
	// (default 64 MiB, LRU; a single oversized entry is allowed to stand
	// alone rather than thrash).
	CacheBytes int64
	// MaxBaselines bounds the warmed-baseline pool (default 8, LRU).
	MaxBaselines int
	// RunHistory bounds retained terminal run records (default 512).
	RunHistory int
	// RequestLog, when set, receives structured JSONL request logs: one
	// "http" line per request and one "run" line per scenario execution.
	RequestLog interface{ Write([]byte) (int, error) }
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxBaselines <= 0 {
		c.MaxBaselines = 8
	}
	if c.RunHistory <= 0 {
		c.RunHistory = 512
	}
	return c
}

// maxBodyBytes bounds a /v1/run or /v1/sweep request body. A spec is a few
// hundred bytes, so this admits sweeps of thousands of scenarios while keeping
// a runaway or hostile client from making the decoder buffer without limit.
const maxBodyBytes = 1 << 20

// Server lifecycle states (readiness, not liveness).
const (
	stateCreated int32 = iota
	stateReady
	stateStopping
)

// Server is the scenario service. Create with New, mark ready with Start,
// serve via Handler, and call BeginShutdown before draining.
type Server struct {
	cfg  Config
	pool *scenario.Pool
	sem  chan struct{} // worker slots

	mu         sync.Mutex
	cache      map[string]*list.Element // key -> lru element (*cacheEntry)
	lru        *list.List               // front = most recently used
	cacheBytes int64
	inflight   map[string]*entry // key -> running computation

	state int32 // atomic: created -> ready -> stopping

	sm   *serverMetrics
	runs *runRegistry
	reg  *metrics.Registry
	log  *requestLog
}

// entry is one spec's computed (or in-flight) result. Completed entries are
// immutable: metrics holds the exact bytes every future hit is served.
type entry struct {
	done    chan struct{}
	metrics json.RawMessage
	perf    scenario.Perf
	err     error
}

// cacheEntry is one resident cache slot.
type cacheEntry struct {
	key  string
	e    *entry
	size int64
}

// New creates a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     scenario.NewPool(cfg.MaxBaselines),
		sem:      make(chan struct{}, cfg.Workers),
		cache:    make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*entry),
		sm:       newServerMetrics(),
		runs:     newRunRegistry(cfg.RunHistory),
		reg:      metrics.NewRegistry(),
		log:      newRequestLog(cfg.RequestLog),
	}
	s.reg.Register("server", s.sm)
	s.reg.Register("runs", s.runs)
	pool := s.pool
	s.reg.RegisterFunc("pool", func(e *metrics.Emitter) {
		st := pool.Stats()
		e.Counter("baseline_builds", st.Builds)
		e.Counter("fork_reuses", st.Reuses)
		e.Counter("evictions", st.Evictions)
		e.Gauge("baselines", int64(st.Baselines))
	})
	return s
}

// Registry exposes the service metrics registry (the /metrics source), so
// embedding processes can add their own collectors or snapshot it directly.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Start marks the worker pool live: /healthz turns 200. Call once the
// process is ready to accept traffic (readiness, distinct from liveness).
func (s *Server) Start() { atomic.StoreInt32(&s.state, stateReady) }

// BeginShutdown marks the service draining: /healthz turns 503 so load
// balancers stop routing new work while in-flight requests finish.
func (s *Server) BeginShutdown() { atomic.StoreInt32(&s.state, stateStopping) }

// RunResponse is the per-scenario reply.
type RunResponse struct {
	// Key is the spec's canonical hash — the cache identity.
	Key string `json:"key"`
	// RunID names this request's lifecycle record (GET /v1/runs/{id}).
	RunID string `json:"run_id,omitempty"`
	// Cached reports the metrics were served from the result cache (or from
	// an in-flight duplicate) rather than a fresh simulation.
	Cached bool `json:"cached"`
	// ForkReused reports the fresh simulation forked a warmed baseline
	// (never set on cached replies; the perf block is the runner's).
	ForkReused bool `json:"fork_reused,omitempty"`
	// Metrics is the deterministic result block, byte-identical for every
	// response with the same key.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Perf describes the run that produced the metrics (fresh runs only).
	Perf *scenario.Perf `json:"perf,omitempty"`
	// Error is set instead of Metrics when the scenario failed.
	Error string `json:"error,omitempty"`
}

// SweepResponse is the /v1/sweep reply: per-scenario results in request
// order, plus a stats snapshot taken after the sweep.
type SweepResponse struct {
	Results []RunResponse `json:"results"`
	Stats   Stats         `json:"stats"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Requests       uint64             `json:"requests"`
	CacheHits      uint64             `json:"cache_hits"`
	CacheMisses    uint64             `json:"cache_misses"`
	CacheEntries   int                `json:"cache_entries"`
	CacheEvictions uint64             `json:"cache_evictions"`
	CacheBytes     int64              `json:"cache_bytes"`
	DedupJoins     uint64             `json:"dedup_joins"`
	Runs           uint64             `json:"runs"`
	Errors         uint64             `json:"errors"`
	Workers        int                `json:"workers"`
	Pool           scenario.PoolStats `json:"pool"`
}

// Handler returns the service's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.instrument("run", s.handleRun))
	mux.HandleFunc("/v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("/v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("/v1/runs", s.instrument("runs", s.handleRuns))
	mux.HandleFunc("/v1/runs/", s.instrument("runs", s.handleRunByID))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	return mux
}

// handleHealthz is the readiness probe: 503 until Start, 503 again once
// BeginShutdown is called, 200 in between.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, body := http.StatusOK, `{"status":"ok"}`
	switch atomic.LoadInt32(&s.state) {
	case stateCreated:
		status, body = http.StatusServiceUnavailable, `{"status":"starting"}`
	case stateStopping:
		status, body = http.StatusServiceUnavailable, `{"status":"shutting_down"}`
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintln(w, body)
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	entries := len(s.cache)
	bytes := s.cacheBytes
	s.mu.Unlock()
	return Stats{
		Requests:       s.sm.requests.Value(),
		CacheHits:      s.sm.cacheHits.Value(),
		CacheMisses:    s.sm.cacheMisses.Value(),
		CacheEntries:   entries,
		CacheEvictions: s.sm.cacheEvictions.Value(),
		CacheBytes:     bytes,
		DedupJoins:     s.sm.dedupJoins.Value(),
		Runs:           s.sm.runs.Value(),
		Errors:         s.sm.errors.Value(),
		Workers:        s.cfg.Workers,
		Pool:           s.pool.Stats(),
	}
}

// decodeJSON decodes the one JSON value r holds into v. Unknown fields are
// rejected — a typo'd field would otherwise be silently dropped from the
// canonical form and alias the request onto the wrong cache key — and so is
// anything but white space after the value.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("unexpected data after the JSON value")
	default:
		return fmt.Errorf("unexpected data after the JSON value: %w", err)
	}
}

// decodeSpec parses and vets the one spec r holds.
func decodeSpec(r io.Reader) (scenario.Spec, error) {
	var sp scenario.Spec
	if err := decodeJSON(r, &sp); err != nil {
		return sp, fmt.Errorf("bad scenario JSON: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	if sp.Capture != "" {
		// Boundary captures are in-memory training artifacts; they have no
		// JSON representation and no business being cached.
		return sp, fmt.Errorf("capture is not available over the scenario service")
	}
	return sp, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sp, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.reject(w, err)
		return
	}
	resp := s.execute(sp, "run")
	status := http.StatusOK
	if resp.Error != "" {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Scenarios []json.RawMessage `json:"scenarios"`
	}
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), &req); err != nil {
		s.reject(w, fmt.Errorf("bad sweep JSON: %w", err))
		return
	}
	if len(req.Scenarios) == 0 {
		s.reject(w, errors.New("sweep needs at least one scenario"))
		return
	}
	// Scenarios run concurrently through the same worker-bounded path as
	// /v1/run; results come back in request order. A sweep sharing a
	// baseline family still serializes on the family's one system — the
	// fork reuse is what it gains.
	results := make([]RunResponse, len(req.Scenarios))
	var wg sync.WaitGroup
	for i, raw := range req.Scenarios {
		sp, err := decodeSpec(bytes.NewReader(raw))
		if err != nil {
			s.sm.errors.Inc()
			results[i] = RunResponse{Error: err.Error()}
			continue
		}
		wg.Add(1)
		go func(i int, sp scenario.Spec) {
			defer wg.Done()
			results[i] = s.execute(sp, "sweep")
		}(i, sp)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, SweepResponse{Results: results, Stats: s.Stats()})
}

// reject answers a request whose body is unusable: 413 when it overran
// maxBodyBytes, 400 otherwise. Either counts as an error.
func (s *Server) reject(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	s.sm.errors.Inc()
	writeJSON(w, status, RunResponse{Error: err.Error()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// finishRun records a run's terminal state, logs its line, and keeps the
// done/failed counters.
func (s *Server) finishRun(ru *run, endpoint string, state RunState, disposition string,
	exec time.Duration, committedMS float64, events uint64, errMsg string) {
	ru.finish(state, disposition, exec, committedMS, events, errMsg)
	if state == RunFailed {
		s.sm.errors.Inc()
	}
	s.log.runLine(endpoint, ru.snapshot())
}

// execute runs one validated spec through cache, in-flight dedup, and the
// worker pool, and shapes the response. endpoint names the API surface the
// spec arrived on ("run" or "sweep"), for the run log.
func (s *Server) execute(sp scenario.Spec, endpoint string) RunResponse {
	s.sm.requests.Inc()
	key, err := sp.Key()
	if err != nil {
		s.sm.errors.Inc()
		return RunResponse{Error: err.Error()}
	}
	n := sp.Normalized()
	ru := s.runs.begin(key, n.Mode, n.HorizonMS)
	id := ru.rec.ID

	s.mu.Lock()
	if el, ok := s.cache[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry).e
		s.mu.Unlock()
		s.sm.cacheHits.Inc()
		// The cached result covered the full horizon; its event count was the
		// runner's, not this request's.
		s.finishRun(ru, endpoint, RunDone, DispositionCached, 0, n.HorizonMS, 0, "")
		return RunResponse{Key: key, RunID: id, Cached: true, Metrics: e.metrics}
	}
	if e, ok := s.inflight[key]; ok {
		// Duplicate of a running spec: wait for the runner, serve its bytes.
		s.mu.Unlock()
		s.sm.dedupJoins.Inc()
		<-e.done
		if e.err != nil {
			s.finishRun(ru, endpoint, RunFailed, DispositionDedup, 0, 0, 0, e.err.Error())
			return RunResponse{Key: key, RunID: id, Error: e.err.Error()}
		}
		s.sm.cacheHits.Inc()
		s.finishRun(ru, endpoint, RunDone, DispositionDedup, 0, n.HorizonMS, 0, "")
		return RunResponse{Key: key, RunID: id, Cached: true, Metrics: e.metrics}
	}
	e := &entry{done: make(chan struct{})}
	s.inflight[key] = e
	s.sm.cacheMisses.Inc()
	s.mu.Unlock()

	s.sem <- struct{}{} // acquire a worker slot
	queueWait := time.Since(ru.enqueuedAt)
	s.sm.queueWaitNS.Observe(uint64(queueWait.Nanoseconds()))
	prog := &obs.Progress{}
	ru.markRunning(queueWait, prog)

	start := time.Now()
	res, err := scenario.Run(sp, scenario.WithPool(s.pool), scenario.WithProgress(prog))
	exec := time.Since(start)
	<-s.sem
	s.sm.runs.Inc()
	s.sm.execNS.Observe(uint64(exec.Nanoseconds()))
	if err == nil {
		for _, ns := range res.Metrics.CollectiveIterNS {
			s.sm.collectiveIterNS.Observe(uint64(ns))
		}
	}

	if err == nil {
		// Marshal ONCE; these bytes are the cached value, so every hit —
		// concurrent or future — is bit-identical to this response.
		e.metrics, err = json.Marshal(res.Metrics)
	}
	e.err = err
	if err == nil {
		e.perf = res.Perf
	}
	close(e.done)

	s.mu.Lock()
	delete(s.inflight, key)
	if err == nil {
		s.cacheInsert(key, e)
	}
	s.mu.Unlock()

	committedMS := float64(prog.Committed()) / float64(des.Millisecond)
	if err != nil {
		s.finishRun(ru, endpoint, RunFailed, DispositionCold, exec, committedMS, prog.Events(), err.Error())
		return RunResponse{Key: key, RunID: id, Error: err.Error()}
	}
	disposition := DispositionCold
	if e.perf.ForkReused {
		disposition = DispositionFork
	}
	s.finishRun(ru, endpoint, RunDone, disposition, exec, committedMS, prog.Events(), "")
	return RunResponse{
		Key:        key,
		RunID:      id,
		ForkReused: e.perf.ForkReused,
		Metrics:    e.metrics,
		Perf:       &e.perf,
	}
}

// cacheInsert files a completed entry as most-recently-used and evicts from
// the LRU tail past either bound. Caller holds s.mu. A single entry larger
// than CacheBytes is allowed to stand alone: evicting the entry just
// inserted would turn every oversized result into a permanent miss.
func (s *Server) cacheInsert(key string, e *entry) {
	ce := &cacheEntry{key: key, e: e, size: int64(len(e.metrics))}
	s.cache[key] = s.lru.PushFront(ce)
	s.cacheBytes += ce.size
	for (s.lru.Len() > s.cfg.CacheSize || s.cacheBytes > s.cfg.CacheBytes) && s.lru.Len() > 1 {
		el := s.lru.Back()
		old := el.Value.(*cacheEntry)
		s.lru.Remove(el)
		delete(s.cache, old.key)
		s.cacheBytes -= old.size
		s.sm.cacheEvictions.Inc()
	}
	s.sm.cacheEntries.Set(int64(s.lru.Len()))
	s.sm.cacheBytes.Set(s.cacheBytes)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// getJSON GETs path and decodes the reply into out, returning the status.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s reply: %v", path, err)
	}
	return resp.StatusCode
}

// midFlightSpec takes a few hundred ms of wall time — long enough to observe
// mid-flight from another goroutine at millisecond polling cadence.
const midFlightSpec = `{"mode":"pdes","topology":{"racks":4},"workload":{"load":0.5},"lps":2,"seed":42,"horizon_ms":40}`

// TestMetricsExposition: GET /metrics renders the service registry in
// Prometheus text format, with the server, pool, and run-registry series all
// present and consistent with /v1/stats.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t)
	body := fmt.Sprintf(pdesSpec, 31, "")
	var rr RunResponse
	if code := post(t, ts, "/v1/run", body, &rr); code != http.StatusOK {
		t.Fatalf("POST: %d (%s)", code, rr.Error)
	}
	if code := post(t, ts, "/v1/run", body, &rr); code != http.StatusOK {
		t.Fatalf("repeat POST: %d (%s)", code, rr.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)

	st := s.Stats()
	for _, want := range []string{
		fmt.Sprintf("approxsim_server_requests %d\n", st.Requests),
		fmt.Sprintf("approxsim_server_cache_hits %d\n", st.CacheHits),
		fmt.Sprintf("approxsim_server_cache_misses %d\n", st.CacheMisses),
		fmt.Sprintf("approxsim_server_cache_bytes %d\n", st.CacheBytes),
		fmt.Sprintf("approxsim_server_runs %d\n", st.Runs),
		fmt.Sprintf("approxsim_pool_baseline_builds %d\n", st.Pool.Builds),
		"approxsim_runs_started 2\n",
		"approxsim_runs_retained 2\n",
		"# TYPE approxsim_server_exec_ns summary\n",
		`approxsim_server_exec_ns{quantile="0.99"}`,
		"approxsim_server_http_requests_run 2\n",
		"# TYPE approxsim_server_http_latency_ns_run summary\n",
		// Endpoint series exist before their first request — fixed schema.
		"approxsim_server_http_requests_sweep 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestRunRegistryLifecycle: every accepted spec gets a run record reachable
// by ID, with disposition and final figures; the list endpoint is
// newest-first; unknown IDs 404.
func TestRunRegistryLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(pdesSpec, 63, "")

	var first, second RunResponse
	post(t, ts, "/v1/run", body, &first)
	post(t, ts, "/v1/run", body, &second)
	if first.RunID == "" || second.RunID == "" || first.RunID == second.RunID {
		t.Fatalf("run IDs: %q, %q", first.RunID, second.RunID)
	}

	var rec RunRecord
	if code := getJSON(t, ts, "/v1/runs/"+first.RunID, &rec); code != http.StatusOK {
		t.Fatalf("GET run: %d", code)
	}
	if rec.State != RunDone || rec.Disposition != DispositionCold {
		t.Fatalf("first run record: state %s disposition %s", rec.State, rec.Disposition)
	}
	if rec.Key != first.Key || rec.Mode != "pdes" {
		t.Fatalf("record identity: key %q mode %q", rec.Key, rec.Mode)
	}
	if rec.CommittedMS < rec.HorizonMS || rec.Events == 0 || rec.ExecMS <= 0 {
		t.Fatalf("final figures: %+v", rec)
	}

	if code := getJSON(t, ts, "/v1/runs/"+second.RunID, &rec); code != http.StatusOK {
		t.Fatalf("GET cached run: %d", code)
	}
	if rec.State != RunDone || rec.Disposition != DispositionCached {
		t.Fatalf("cached run record: state %s disposition %s", rec.State, rec.Disposition)
	}

	var list RunsResponse
	getJSON(t, ts, "/v1/runs", &list)
	if len(list.Runs) != 2 || list.Runs[0].ID != second.RunID || list.Runs[1].ID != first.RunID {
		t.Fatalf("list not newest-first: %+v", list.Runs)
	}

	var missing map[string]string
	if code := getJSON(t, ts, "/v1/runs/run-999999", &missing); code != http.StatusNotFound {
		t.Fatalf("unknown run: %d", code)
	}
}

// TestRunObservedMidFlight is the satellite e2e test: a run polled via
// GET /v1/runs/{id} while executing reports monotonically advancing
// committed virtual time, and the record settles to the final figures.
func TestRunObservedMidFlight(t *testing.T) {
	_, ts := newTestServer(t)

	respCh := make(chan RunResponse, 1)
	go func() {
		var rr RunResponse
		post(t, ts, "/v1/run", midFlightSpec, &rr)
		respCh <- rr
	}()

	// Find the run's ID via the list endpoint; the discovery reading is the
	// first progress sample if the run is already executing.
	var samples []RunRecord
	var id string
	// The polls give up a tenth of the remaining time before the test
	// binary's own -timeout would end it, not after a fixed wall-clock
	// span: on a loaded host (other packages' race suites sharing its CPUs)
	// the run is slow, not wrong, and a run that never finishes still fails
	// here, by name. Without a -timeout, the go command's default of ten
	// minutes applies.
	deadline := time.Now().Add(10 * time.Minute)
	if d, ok := t.Deadline(); ok {
		deadline = d.Add(-time.Until(d) / 10)
	}
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("run never appeared in /v1/runs")
		}
		var list RunsResponse
		getJSON(t, ts, "/v1/runs", &list)
		if len(list.Runs) > 0 {
			id = list.Runs[0].ID
			if list.Runs[0].State == RunRunning {
				samples = append(samples, list.Runs[0])
			}
		}
	}

	// Poll the record until terminal, collecting progress samples. No sleep:
	// on a starved single-CPU box each round trip already takes a while, and
	// the run outlasts many of them.
	var final RunRecord
	for {
		if time.Now().After(deadline) {
			t.Fatal("run never finished")
		}
		var rec RunRecord
		getJSON(t, ts, "/v1/runs/"+id, &rec)
		if rec.State == RunDone || rec.State == RunFailed {
			final = rec
			break
		}
		if rec.State == RunRunning {
			samples = append(samples, rec)
		}
	}

	if len(samples) < 2 {
		t.Fatalf("only %d mid-flight samples; spec too fast to observe", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].CommittedMS < samples[i-1].CommittedMS {
			t.Fatalf("committed time regressed: %v then %v", samples[i-1].CommittedMS, samples[i].CommittedMS)
		}
		if samples[i].Events < samples[i-1].Events {
			t.Fatalf("event count regressed: %d then %d", samples[i-1].Events, samples[i].Events)
		}
	}
	if last := samples[len(samples)-1]; last.CommittedMS <= samples[0].CommittedMS {
		t.Fatalf("committed time never advanced mid-flight: %v .. %v over %d samples",
			samples[0].CommittedMS, last.CommittedMS, len(samples))
	}

	rr := <-respCh
	if rr.Error != "" {
		t.Fatalf("run failed: %s", rr.Error)
	}
	if final.State != RunDone || final.Disposition != DispositionCold {
		t.Fatalf("final record: %+v", final)
	}
	if final.CommittedMS < final.HorizonMS || final.Events == 0 {
		t.Fatalf("final record did not settle to run totals: %+v", final)
	}
	if final.CommittedMS < samples[len(samples)-1].CommittedMS {
		t.Fatalf("final committed %v below last observed %v", final.CommittedMS, samples[len(samples)-1].CommittedMS)
	}
}

// TestRunWatchSSE: GET /v1/runs/{id}?watch=1 streams progress events and a
// terminal result event, with committed time non-decreasing across frames.
func TestRunWatchSSE(t *testing.T) {
	old := watchPeriod
	watchPeriod = 5 * time.Millisecond
	defer func() { watchPeriod = old }()

	_, ts := newTestServer(t)
	respCh := make(chan RunResponse, 1)
	go func() {
		var rr RunResponse
		post(t, ts, "/v1/run", midFlightSpec, &rr)
		respCh <- rr
	}()

	var id string
	deadline := time.Now().Add(10 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("run never appeared")
		}
		var list RunsResponse
		getJSON(t, ts, "/v1/runs", &list)
		if len(list.Runs) > 0 {
			id = list.Runs[0].ID
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// The stream ends when the run does; collect every frame.
	var events []string
	var records []RunRecord
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var rec RunRecord
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
			events = append(events, event)
			records = append(records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) < 2 || events[len(events)-1] != "result" {
		t.Fatalf("stream frames %v, want progress frames then one result", events)
	}
	for _, e := range events[:len(events)-1] {
		if e != "progress" {
			t.Fatalf("unexpected event %q before result", e)
		}
	}
	for i := 1; i < len(records); i++ {
		if records[i].CommittedMS < records[i-1].CommittedMS {
			t.Fatalf("SSE committed regressed: %v then %v", records[i-1].CommittedMS, records[i].CommittedMS)
		}
	}
	if fin := records[len(records)-1]; fin.State != RunDone || fin.CommittedMS < fin.HorizonMS {
		t.Fatalf("terminal SSE record: %+v", fin)
	}
	if rr := <-respCh; rr.Error != "" {
		t.Fatalf("run failed: %s", rr.Error)
	}
}

// TestHealthzLifecycle: 503 before Start, 200 while serving, 503 again once
// shutdown begins.
func TestHealthzLifecycle(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(wantCode int, wantStatus string) {
		t.Helper()
		var body map[string]string
		if code := getJSON(t, ts, "/healthz", &body); code != wantCode {
			t.Fatalf("healthz: %d, want %d", code, wantCode)
		}
		if body["status"] != wantStatus {
			t.Fatalf("healthz body %v, want status %q", body, wantStatus)
		}
	}
	check(http.StatusServiceUnavailable, "starting")
	s.Start()
	check(http.StatusOK, "ok")
	s.BeginShutdown()
	check(http.StatusServiceUnavailable, "shutting_down")
}

// TestCacheLRUEviction: the result cache evicts least-recently-used, a hit
// protects its entry, and evicted specs re-simulate.
func TestCacheLRUEviction(t *testing.T) {
	s := New(Config{Workers: 2, CacheSize: 2, MaxBaselines: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specA := fmt.Sprintf(pdesSpec, 1, "")
	specB := fmt.Sprintf(pdesSpec, 2, "")
	specC := fmt.Sprintf(pdesSpec, 3, "")

	var rr RunResponse
	post(t, ts, "/v1/run", specA, &rr) // cache [A]
	post(t, ts, "/v1/run", specB, &rr) // cache [A B]
	post(t, ts, "/v1/run", specA, &rr) // hit; promotes A over B
	if !rr.Cached {
		t.Fatal("expected a cache hit for A")
	}
	post(t, ts, "/v1/run", specC, &rr) // evicts B (LRU), not A

	post(t, ts, "/v1/run", specA, &rr)
	if !rr.Cached {
		t.Fatal("A was evicted despite being recently used")
	}
	post(t, ts, "/v1/run", specB, &rr)
	if rr.Cached {
		t.Fatal("B survived eviction in a cache of 2 after A was promoted")
	}

	st := s.Stats()
	if st.CacheEvictions < 2 { // B once, then A or C when B re-entered
		t.Fatalf("evictions = %d, want >= 2", st.CacheEvictions)
	}
	if st.CacheEntries != 2 {
		t.Fatalf("entries = %d, want 2", st.CacheEntries)
	}
	if st.CacheBytes <= 0 {
		t.Fatalf("cache bytes = %d", st.CacheBytes)
	}
}

// TestCacheByteBound: a byte bound tighter than one payload leaves exactly
// the newest entry resident (a sole oversized entry is never self-evicted).
func TestCacheByteBound(t *testing.T) {
	s := New(Config{Workers: 2, CacheSize: 32, CacheBytes: 1, MaxBaselines: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var rr RunResponse
	post(t, ts, "/v1/run", fmt.Sprintf(pdesSpec, 1, ""), &rr)
	post(t, ts, "/v1/run", fmt.Sprintf(pdesSpec, 2, ""), &rr)

	st := s.Stats()
	if st.CacheEntries != 1 {
		t.Fatalf("entries = %d, want the newest entry alone", st.CacheEntries)
	}
	if st.CacheEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.CacheEvictions)
	}
	// The survivor must still serve hits.
	post(t, ts, "/v1/run", fmt.Sprintf(pdesSpec, 2, ""), &rr)
	if !rr.Cached {
		t.Fatal("resident oversized entry missed")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the request log writes from
// handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogJSONL: with RequestLog configured the server emits one parseable
// "http" line per request and one "run" line per execution, carrying run ID,
// spec hash, and disposition.
func TestRequestLogJSONL(t *testing.T) {
	var buf syncBuffer
	s := New(Config{Workers: 2, RequestLog: &buf})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(pdesSpec, 77, "")
	var first, second RunResponse
	post(t, ts, "/v1/run", body, &first)
	post(t, ts, "/v1/run", body, &second)

	// The http line lands after the response is sent; wait for both kinds.
	var runLines []runLogLine
	var httpLines []httpLogLine
	deadline := time.Now().Add(5 * time.Second)
	for {
		runLines, httpLines = nil, nil
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if line == "" {
				continue
			}
			var kind struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal([]byte(line), &kind); err != nil {
				t.Fatalf("unparseable log line %q: %v", line, err)
			}
			switch kind.Kind {
			case "run":
				var rl runLogLine
				if err := json.Unmarshal([]byte(line), &rl); err != nil {
					t.Fatal(err)
				}
				runLines = append(runLines, rl)
			case "http":
				var hl httpLogLine
				if err := json.Unmarshal([]byte(line), &hl); err != nil {
					t.Fatal(err)
				}
				httpLines = append(httpLines, hl)
			default:
				t.Fatalf("log line of unknown kind %q", line)
			}
		}
		if len(runLines) >= 2 && len(httpLines) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("log incomplete: %d run lines, %d http lines", len(runLines), len(httpLines))
		}
		time.Sleep(2 * time.Millisecond)
	}

	cold, cached := runLines[0], runLines[1]
	if cold.RunID != first.RunID || cold.Disposition != DispositionCold || cold.State != "done" {
		t.Fatalf("cold run line: %+v", cold)
	}
	if cold.Key != first.Key || cold.ExecMS <= 0 || cold.Events == 0 {
		t.Fatalf("cold run line figures: %+v", cold)
	}
	if cached.RunID != second.RunID || cached.Disposition != DispositionCached {
		t.Fatalf("cached run line: %+v", cached)
	}
	for _, hl := range httpLines {
		if hl.Endpoint != "run" || hl.Method != http.MethodPost || hl.Status != http.StatusOK || hl.Path != "/v1/run" {
			t.Fatalf("http line: %+v", hl)
		}
	}
}

// TestConcurrentObservers exercises the registry, metrics, and stats
// endpoints while runs execute and duplicate posts dedup — the race-detector
// workout for the observability plumbing.
func TestConcurrentObservers(t *testing.T) {
	s, ts := newTestServer(t)

	stopObs := make(chan struct{})
	var obsWG sync.WaitGroup
	for _, path := range []string{"/v1/runs", "/metrics", "/v1/stats"} {
		obsWG.Add(1)
		go func(path string) {
			defer obsWG.Done()
			for {
				select {
				case <-stopObs:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Four distinct specs, each posted twice: exercises cold runs,
			// dedup joins, and cache hits under load.
			var rr RunResponse
			post(t, ts, "/v1/run", fmt.Sprintf(pdesSpec, 10+i%4, ""), &rr)
		}(i)
	}
	wg.Wait()
	close(stopObs)
	obsWG.Wait()

	st := s.Stats()
	if st.Runs != 4 {
		t.Fatalf("runs = %d, want 4 (duplicates must dedup or hit cache)", st.Runs)
	}
	if st.CacheHits != 4 { // dedup joins count as hits: same bytes, no re-run
		t.Fatalf("cache hits = %d, want 4", st.CacheHits)
	}
	var list RunsResponse
	getJSON(t, ts, "/v1/runs", &list)
	if len(list.Runs) != 8 {
		t.Fatalf("registry retained %d records, want 8", len(list.Runs))
	}
}

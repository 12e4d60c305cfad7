package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 4, CacheSize: 32, MaxBaselines: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body to path and decodes the reply into out, returning the
// status code.
func post(t *testing.T, ts *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s reply: %v", path, err)
	}
	return resp.StatusCode
}

const pdesSpec = `{"mode":"pdes","topology":{"racks":4},"workload":{"load":0.3},"lps":2,"seed":%d,"horizon_ms":1%s}`

// TestCacheHitBitIdentical is the satellite e2e test: the same spec POSTed
// twice — the second reply must be a cache hit carrying a byte-identical
// metrics payload.
func TestCacheHitBitIdentical(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(pdesSpec, 7, "")
	var first, second RunResponse
	if code := post(t, ts, "/v1/run", body, &first); code != http.StatusOK {
		t.Fatalf("first POST: status %d (%s)", code, first.Error)
	}
	if first.Cached {
		t.Fatal("first run of a spec cannot be a cache hit")
	}
	if code := post(t, ts, "/v1/run", body, &second); code != http.StatusOK {
		t.Fatalf("second POST: status %d (%s)", code, second.Error)
	}
	if !second.Cached {
		t.Fatal("identical resubmission was not served from cache")
	}
	if first.Key != second.Key || first.Key == "" {
		t.Fatalf("keys differ: %q vs %q", first.Key, second.Key)
	}
	if !bytes.Equal(first.Metrics, second.Metrics) {
		t.Fatalf("cache hit is not bit-identical:\n first  %s\n second %s", first.Metrics, second.Metrics)
	}
	// Field-order invariance end to end: a shuffled-JSON duplicate hits too.
	shuffled := `{"horizon_ms":1,"seed":7,"lps":2,"workload":{"load":0.3},"topology":{"racks":4},"mode":"pdes"}`
	var third RunResponse
	post(t, ts, "/v1/run", shuffled, &third)
	if !third.Cached || !bytes.Equal(first.Metrics, third.Metrics) {
		t.Fatal("field-order-shuffled duplicate missed the cache")
	}
}

// TestSeedsDistinct: two specs differing only in seed must key and result
// differently.
func TestSeedsDistinct(t *testing.T) {
	_, ts := newTestServer(t)
	var a, b RunResponse
	post(t, ts, "/v1/run", fmt.Sprintf(pdesSpec, 1, ""), &a)
	post(t, ts, "/v1/run", fmt.Sprintf(pdesSpec, 2, ""), &b)
	if a.Error != "" || b.Error != "" {
		t.Fatalf("run errors: %q / %q", a.Error, b.Error)
	}
	if a.Key == b.Key {
		t.Fatal("different seeds share a cache key")
	}
	if b.Cached {
		t.Fatal("different seed served from cache")
	}
	if bytes.Equal(a.Metrics, b.Metrics) {
		t.Fatalf("different seeds produced identical metrics: %s", a.Metrics)
	}
}

// TestSweepForkReuse: a 3-variant fault sweep shares one warmed baseline —
// at least one result must report a snapshot fork, and the pool counter must
// agree (the acceptance criterion's ≥1 reuse).
func TestSweepForkReuse(t *testing.T) {
	s, ts := newTestServer(t)
	sweep := fmt.Sprintf(`{"scenarios":[%s,%s,%s]}`,
		fmt.Sprintf(pdesSpec, 7, ``),
		fmt.Sprintf(pdesSpec, 7, `,"faults":"switch:spine0@300us+200us,detect=50us"`),
		fmt.Sprintf(pdesSpec, 7, `,"faults":"link:tor0-spine1@200us+400us,detect=40us"`))
	var resp SweepResponse
	if code := post(t, ts, "/v1/sweep", sweep, &resp); code != http.StatusOK {
		t.Fatalf("sweep status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	forks := 0
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("variant %d failed: %s", i, r.Error)
		}
		if r.ForkReused {
			forks++
		}
	}
	if forks < 1 {
		t.Fatal("3-variant sweep reported no snapshot-fork reuse")
	}
	if st := s.Stats(); st.Pool.Reuses < 1 {
		t.Fatalf("pool reports no reuse: %+v", st.Pool)
	}
	if resp.Stats.Runs != 3 {
		t.Fatalf("sweep stats: %+v", resp.Stats)
	}
}

// TestSweepWarmMultiLPForkReuse: a fault sweep over a multi-LP warm family —
// the shape the warm-fork bugfix unlocks — runs end to end through the HTTP
// API. The baseline warms once to warm_ms with lps=4 (parking in-flight
// cross-LP packets at the warm point), every later variant forks it there,
// and each variant commits a real (nonzero-flow) result.
func TestSweepWarmMultiLPForkReuse(t *testing.T) {
	s, ts := newTestServer(t)
	warmSpec := func(faults string) string {
		return fmt.Sprintf(`{"mode":"pdes","topology":{"racks":8},"workload":{"load":0.5},"lps":4,"seed":9,"horizon_ms":3,"warm_ms":1%s}`, faults)
	}
	sweep := fmt.Sprintf(`{"scenarios":[%s,%s,%s]}`,
		warmSpec(``),
		warmSpec(`,"faults":"switch:spine1@1500us+500us,detect=40us"`),
		warmSpec(`,"faults":"link:tor0-spine0@1200us+600us,detect=60us,jitter=10us"`))
	var resp SweepResponse
	if code := post(t, ts, "/v1/sweep", sweep, &resp); code != http.StatusOK {
		t.Fatalf("sweep status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	forks := 0
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("variant %d failed: %s", i, r.Error)
		}
		if r.ForkReused {
			forks++
		}
		var m struct {
			Flows     int `json:"flows"`
			Completed int `json:"completed"`
		}
		if err := json.Unmarshal(r.Metrics, &m); err != nil {
			t.Fatalf("variant %d metrics: %v", i, err)
		}
		if m.Flows == 0 || m.Completed == 0 {
			t.Fatalf("variant %d committed a degenerate result: %s", i, r.Metrics)
		}
	}
	if forks != 2 {
		t.Fatalf("%d forks across a 3-variant warm family, want 2", forks)
	}
	if st := s.Stats(); st.Pool.Reuses < 2 {
		t.Fatalf("pool reports %d reuses, want >= 2: %+v", st.Pool.Reuses, st.Pool)
	}
}

// TestConcurrentPosts hammers the server with duplicate and distinct specs
// concurrently (run under -race in CI): every reply for one key must carry
// the same metrics bytes, and each distinct spec must simulate at most once.
func TestConcurrentPosts(t *testing.T) {
	s, ts := newTestServer(t)
	const perSpec = 8
	seeds := []int{1, 2, 3}
	var wg sync.WaitGroup
	results := make(chan RunResponse, perSpec*len(seeds))
	for _, seed := range seeds {
		body := fmt.Sprintf(pdesSpec, seed, "")
		for i := 0; i < perSpec; i++ {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				var r RunResponse
				if code := post(t, ts, "/v1/run", body, &r); code != http.StatusOK {
					t.Errorf("status %d: %s", code, r.Error)
					return
				}
				results <- r
			}(body)
		}
	}
	wg.Wait()
	close(results)
	byKey := map[string][]byte{}
	for r := range results {
		if prev, ok := byKey[r.Key]; ok {
			if !bytes.Equal(prev, r.Metrics) {
				t.Fatalf("key %s served two different payloads", r.Key)
			}
		} else {
			byKey[r.Key] = r.Metrics
		}
	}
	if len(byKey) != len(seeds) {
		t.Fatalf("%d distinct keys, want %d", len(byKey), len(seeds))
	}
	if st := s.Stats(); st.Runs != uint64(len(seeds)) {
		t.Fatalf("%d simulations for %d distinct specs (in-flight dedup broken)", st.Runs, len(seeds))
	}
}

// TestRejections: malformed, invalid, unknown-field, and capture-carrying
// requests are 400s and never reach the engine.
func TestRejections(t *testing.T) {
	s, ts := newTestServer(t)
	for name, body := range map[string]string{
		"malformed":     `{"mode":`,
		"unknown mode":  `{"mode":"quantum"}`,
		"unknown field": `{"mode":"full","horzon_ms":5}`,
		"capture":       `{"mode":"full","capture":"cluster"}`,
		"bad faults":    `{"mode":"pdes","faults":"spine0 dies"}`,
	} {
		var r RunResponse
		if code := post(t, ts, "/v1/run", body, &r); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if r.Error == "" {
			t.Errorf("%s: no error in reply", name)
		}
	}
	if st := s.Stats(); st.Runs != 0 {
		t.Fatalf("rejected requests reached the engine: %+v", st)
	}
}

// TestRunTrailingData: a /v1/run body holding anything after its spec — a
// second spec or garbage — is a 400 that never reaches the engine, and the
// next well-formed request succeeds.
func TestRunTrailingData(t *testing.T) {
	s, ts := newTestServer(t)
	spec := fmt.Sprintf(pdesSpec, 5, "")
	for name, body := range map[string]string{
		"second value": spec + `{"mode":"quantum"}`,
		"garbage":      spec + ` garbage`,
	} {
		var r RunResponse
		if code := post(t, ts, "/v1/run", body, &r); code != http.StatusBadRequest || r.Error == "" {
			t.Errorf("%s: status %d, error %q; want 400 with an error", name, code, r.Error)
		}
	}
	if st := s.Stats(); st.Runs != 0 {
		t.Fatalf("rejected requests reached the engine: %+v", st)
	}
	var r RunResponse
	if code := post(t, ts, "/v1/run", spec+"\n", &r); code != http.StatusOK || r.Error != "" {
		t.Fatalf("well-formed request after the rejections: status %d, error %q", code, r.Error)
	}
}

// TestSweepTrailingData: the same for a /v1/sweep body.
func TestSweepTrailingData(t *testing.T) {
	s, ts := newTestServer(t)
	sweep := `{"scenarios":[` + fmt.Sprintf(pdesSpec, 6, "") + `]}`
	var r RunResponse
	if code := post(t, ts, "/v1/sweep", sweep+` junk`, &r); code != http.StatusBadRequest || r.Error == "" {
		t.Errorf("status %d, error %q; want 400 with an error", code, r.Error)
	}
	if st := s.Stats(); st.Runs != 0 {
		t.Fatalf("rejected request reached the engine: %+v", st)
	}
	var sr SweepResponse
	if code := post(t, ts, "/v1/sweep", sweep, &sr); code != http.StatusOK || len(sr.Results) != 1 || sr.Results[0].Error != "" {
		t.Fatalf("well-formed sweep after the rejection: status %d, reply %+v", code, sr)
	}
}

// TestOversizeBody: a /v1/run or /v1/sweep body past maxBodyBytes is refused
// with 413 and an error reply, counted as an error, and leaves the server
// serving the next normal request.
func TestOversizeBody(t *testing.T) {
	s, ts := newTestServer(t)
	big := strings.Repeat("a", maxBodyBytes+1)
	for path, body := range map[string]string{
		"/v1/run":   `{"mode":"` + big + `"}`,
		"/v1/sweep": `{"scenarios":["` + big + `"]}`,
	} {
		var r RunResponse
		if code := post(t, ts, path, body, &r); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, code)
		}
		if r.Error == "" {
			t.Errorf("%s: no error in reply", path)
		}
	}
	if st := s.Stats(); st.Errors != 2 || st.Runs != 0 {
		t.Fatalf("after two oversize bodies: errors=%d runs=%d, want 2 and 0", st.Errors, st.Runs)
	}
	var r RunResponse
	if code := post(t, ts, "/v1/run", fmt.Sprintf(pdesSpec, 3, ""), &r); code != http.StatusOK || r.Error != "" {
		t.Fatalf("normal request after oversize bodies: status %d, error %q", code, r.Error)
	}
}

// TestStatsAndHealth covers the two GET endpoints.
func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var st Stats
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// instantSim is a fake simulation that finishes immediately with
// metrics identifying the config.
func instantSim(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
	return sim.Metrics{Scheme: cfg.Scheme.Name(), Workload: cfg.Workload.Name,
		IPC: float64(cfg.Seed), Instructions: cfg.Seed}, nil
}

// countingSim wraps a SimFunc with an execution counter.
func countingSim(n *atomic.Int64, inner func(context.Context, sim.Config) (sim.Metrics, error)) func(context.Context, sim.Config) (sim.Metrics, error) {
	return func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
		n.Add(1)
		return inner(ctx, cfg)
	}
}

// gatedSim blocks each run between signalling `started` and receiving
// from `release` (a closed release channel frees every run).
func gatedSim(started chan<- struct{}, release <-chan struct{}) func(context.Context, sim.Config) (sim.Metrics, error) {
	return func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
		started <- struct{}{}
		select {
		case <-release:
			return instantSim(ctx, cfg)
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
}

// newTestServer builds a server (instant fake sim unless overridden)
// and an httptest frontend, both torn down with the test.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Sim == nil {
		opt.Sim = instantSim
	}
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// submitBody is the canonical quick shorthand submission.
func submitBody(seed uint64) string {
	return fmt.Sprintf(`{"scheme":"static-7","workload":"GemsFDTD","quick":true,"seed":%d}`, seed)
}

// postJob submits and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, SubmitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(blob, &sr); err != nil {
			t.Fatalf("decoding %q: %v", blob, err)
		}
	}
	return resp.StatusCode, sr
}

// waitState polls a job's status until it reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestSubmitStatusResultRoundTrip: submit -> 202 queued, status
// reaches done, result returns the metrics.
func TestSubmitStatusResultRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	code, sr := postJob(t, ts, submitBody(7))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if !sr.Created || sr.ID == "" || sr.State != "queued" && sr.State != "running" && sr.State != "done" {
		t.Fatalf("unexpected submit response %+v", sr)
	}
	if sr.Scheme != "Static-7-SETs" || sr.Workload != "GemsFDTD" {
		t.Fatalf("scheme/workload %q/%q", sr.Scheme, sr.Workload)
	}

	st := waitState(t, ts, sr.ID)
	if st.State != "done" {
		t.Fatalf("final state %q (%s)", st.State, st.Error)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatal("done status missing timestamps")
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d, want 200", resp.StatusCode)
	}
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Metrics.IPC != 7 || jr.Metrics.Workload != "GemsFDTD" {
		t.Fatalf("result metrics %+v", jr.Metrics)
	}
}

// TestSubmitValidation: malformed submissions are 400s with an error
// body, and unknown jobs are 404s.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []string{
		`{"scheme":"warp-9","workload":"GemsFDTD"}`,
		`{"scheme":"rrm","workload":"no-such-workload"}`,
		`{"scheme":"rrm"}`,
		`{"scheme":"rrm","workload":"mcf","config":{}}`,
		`{"scheme":"rrm","tenants":[{"name":"a","profile":"hmmer"}]}`,
		`{"bogus":true}`,
		`not json`,
	} {
		code, _ := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, code)
		}
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestSubmitRejectsUnknownConfigField: a full config carrying a field
// sim.Config does not have is a 400 naming the field, never a silently
// different run, and nothing is queued or run. The rows are knobs that
// no longer exist: the retired sharded engine's "Shards", the retention
// checker's off switch, and a trace-replay workload naming a file on
// the server. The same config without any of them is accepted.
func TestSubmitRejectsUnknownConfigField(t *testing.T) {
	var ran atomic.Int64
	srv, ts := newTestServer(t, Options{Sim: countingSim(&ran, instantSim)})
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sim.DefaultConfig(sim.RRMScheme(), w))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.rrmt")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	freshConfig := func() map[string]any {
		var cfg map[string]any
		if err := json.Unmarshal(blob, &cfg); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	post := func(cfg map[string]any) (int, string) {
		body, err := json.Marshal(map[string]any{"config": cfg})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e["error"]
	}

	for _, tc := range []struct {
		field string
		set   func(cfg map[string]any)
	}{
		{"Shards", func(cfg map[string]any) { cfg["Shards"] = 4 }},
		{"CheckRetention", func(cfg map[string]any) { cfg["CheckRetention"] = false }},
		{"Replay", func(cfg map[string]any) {
			refs := make([]any, 4)
			for i := range refs {
				refs[i] = map[string]any{"Path": path, "Sum": 1}
			}
			cfg["Workload"].(map[string]any)["Replay"] = refs
		}},
	} {
		cfg := freshConfig()
		tc.set(cfg)
		if code, msg := post(cfg); code != http.StatusBadRequest || !strings.Contains(msg, tc.field) {
			t.Errorf("config with %s: status %d error %q, want 400 naming the field", tc.field, code, msg)
		}
		if n := srv.QueueDepth(); n != 0 || ran.Load() != 0 {
			t.Errorf("rejected %s submit left %d queued, %d run", tc.field, n, ran.Load())
		}
	}
	if code, msg := post(freshConfig()); code != http.StatusAccepted {
		t.Errorf("plain config: status %d (%s), want 202", code, msg)
	}
}

// TestSubmitRejectsReplayConfig: the workload shape a trace-replay
// client sent — no Cores, one Replay file per stream, each naming a
// file on the server — is a 400 naming Replay; nothing is queued or
// run and no file is opened.
func TestSubmitRejectsReplayConfig(t *testing.T) {
	var ran atomic.Int64
	srv, ts := newTestServer(t, Options{Sim: countingSim(&ran, instantSim)})
	path := filepath.Join(t.TempDir(), "c.rrmt")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sim.DefaultConfig(sim.RRMScheme(), w))
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]any
	if err := json.Unmarshal(blob, &cfg); err != nil {
		t.Fatal(err)
	}
	refs := make([]any, 4)
	for i := range refs {
		refs[i] = map[string]any{"Path": path, "Sum": 1}
	}
	workload := cfg["Workload"].(map[string]any)
	delete(workload, "Cores")
	workload["Replay"] = refs
	body, err := json.Marshal(map[string]any{"config": cfg})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], "Replay") {
		t.Errorf("replay config: status %d error %q, want 400 naming Replay", resp.StatusCode, e["error"])
	}
	if n := srv.QueueDepth(); n != 0 || ran.Load() != 0 {
		t.Errorf("rejected submit left %d queued, %d run", n, ran.Load())
	}
}

// TestSubmitRejectsOversizedProfile: a full config whose workload asks
// for a hot pool or revisit ring far past its working set (each of these
// would have NewMixture allocate 64 GiB) is a 400 naming the field, and
// nothing is queued or built.
func TestSubmitRejectsOversizedProfile(t *testing.T) {
	var ran atomic.Int64
	srv, ts := newTestServer(t, Options{Sim: countingSim(&ran, instantSim)})
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field  string
		mutate func(*trace.Profile)
	}{
		{"HotRegions", func(p *trace.Profile) { p.HotRegions = 1 << 33 }},
		{"SweepGapRegions", func(p *trace.Profile) { p.SweepGapRegions = 1 << 33 }},
	} {
		cfg := sim.DefaultConfig(sim.RRMScheme(), w)
		cfg.Workload.Cores = slices.Clone(cfg.Workload.Cores)
		c.mutate(&cfg.Workload.Cores[2])
		body, err := json.Marshal(map[string]any{"config": cfg})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], c.field) {
			t.Errorf("%s = 1<<33: status %d error %q, want 400 naming the field", c.field, resp.StatusCode, e["error"])
		}
	}
	if n := srv.QueueDepth(); n != 0 || ran.Load() != 0 {
		t.Errorf("rejected submits left %d queued, %d run", n, ran.Load())
	}
}

// TestSubmitRejectsHostileTiers: the RRM's mid-tier list arrives as
// outside input in a full config. Tiers out of order, a refresh interval
// at or past its mode's retention, or ten thousand tiers are each a 400
// naming the field, and nothing is queued or built.
func TestSubmitRejectsHostileTiers(t *testing.T) {
	var ran atomic.Int64
	srv, ts := newTestServer(t, Options{Sim: countingSim(&ran, instantSim)})
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	mid := func(mode pcm.WriteMode, threshold int, iv timing.Time) core.RRMTier {
		return core.RRMTier{Mode: mode, Threshold: threshold, RefreshInterval: iv}
	}
	many := make([]core.RRMTier, 10000)
	for i := range many {
		many[i] = mid(pcm.Mode5SETs, 8, 103*timing.Second)
	}
	for name, tiers := range map[string][]core.RRMTier{
		"out of order":          {mid(pcm.Mode5SETs, 4, timing.Second), mid(pcm.Mode6SETs, 8, timing.Second)},
		"interval at retention": {mid(pcm.Mode5SETs, 8, pcm.Retention(pcm.Mode5SETs))},
		"ten thousand tiers":    many,
	} {
		cfg := sim.DefaultConfig(sim.RRMScheme(), w)
		cfg.Scheme.RRM.MidTiers = tiers
		body, err := json.Marshal(map[string]any{"config": cfg})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], "mid tier") {
			t.Errorf("%s: status %d error %q, want 400 naming the mid tier", name, resp.StatusCode, e["error"])
		}
	}
	if n := srv.QueueDepth(); n != 0 || ran.Load() != 0 {
		t.Errorf("rejected submits left %d queued, %d run", n, ran.Load())
	}
}

// TestSubmitBodyTooLarge: a submission body past the 1 MiB limit is
// refused with 413 before it is decoded in full, and queues nothing.
func TestSubmitBodyTooLarge(t *testing.T) {
	var ran atomic.Int64
	srv, _ := newTestServer(t, Options{Sim: countingSim(&ran, instantSim)})
	body := `{"scheme":"static-7","workload":"GemsFDTD","label":"` +
		strings.Repeat("x", 2<<20) + `"}`
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB submit: status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Errorf("413 body %q has no error message", rec.Body)
	}
	if n := srv.QueueDepth(); n != 0 || ran.Load() != 0 {
		t.Errorf("oversized submit left %d queued, %d run", n, ran.Load())
	}
	// An ordinary body through the same handler is still accepted.
	small := `{"scheme":"static-7","workload":"GemsFDTD","quick":true}`
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(small)))
	if rec.Code != http.StatusAccepted {
		t.Errorf("small submit: status %d, want 202 (%s)", rec.Code, rec.Body)
	}
}

// TestIdempotentResubmission: an identical config resubmitted to a
// live server returns the existing job without a second simulation.
func TestIdempotentResubmission(t *testing.T) {
	var ran atomic.Int64
	_, ts := newTestServer(t, Options{Sim: countingSim(&ran, instantSim)})

	code, first := postJob(t, ts, submitBody(3))
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d, want 202", code)
	}
	waitState(t, ts, first.ID)

	code, second := postJob(t, ts, submitBody(3))
	if code != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200", code)
	}
	if second.Created {
		t.Fatal("resubmit reported Created")
	}
	if second.ID != first.ID {
		t.Fatalf("resubmit id %s != %s", second.ID, first.ID)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d simulations ran, want 1", got)
	}
}

// TestIdempotentAcrossRestart: with a shared cache directory, a fresh
// server answers a known config from the disk run cache — done
// immediately, zero simulations — and serves status/result for hashes
// it has never seen as live jobs.
func TestIdempotentAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var ran1 atomic.Int64
	_, ts1 := newTestServer(t, Options{CacheDir: dir, Sim: countingSim(&ran1, instantSim)})
	code, first := postJob(t, ts1, submitBody(11))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts1, first.ID)
	if ran1.Load() != 1 {
		t.Fatalf("first server ran %d sims, want 1", ran1.Load())
	}

	var ran2 atomic.Int64
	_, ts2 := newTestServer(t, Options{CacheDir: dir, Sim: countingSim(&ran2, instantSim)})

	// Result endpoint backed by the disk cache, no submission at all.
	resp, err := http.Get(ts2.URL + "/api/v1/jobs/" + first.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !jr.Cached || jr.Metrics.IPC != 11 {
		t.Fatalf("cache-backed result: status %d, %+v", resp.StatusCode, jr)
	}

	// Resubmission completes instantly from the cache.
	code, sr := postJob(t, ts2, submitBody(11))
	if code != http.StatusOK {
		t.Fatalf("cached submit status %d, want 200", code)
	}
	if sr.Created || sr.State != "done" || !sr.Cached {
		t.Fatalf("cached submit response %+v", sr)
	}
	if got := ran2.Load(); got != 0 {
		t.Fatalf("second server ran %d simulations, want 0", got)
	}
}

// TestResultRejectsTraversalID: job ids come from the URL, and the run
// cache must not resolve one that escapes its directory. A valid entry
// keyed "../outside" planted beside the cache directory is not served
// by either cache-backed endpoint; the same entry keyed "inside" within
// it is, so the 404 is the key check and not a stale entry format.
func TestResultRejectsTraversalID(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	plant := func(path, key string) {
		// A run entry in its trailer-free JSON envelope (cache format 3).
		blob, err := json.Marshal(struct {
			Format  int
			Key     string
			Metrics sim.Metrics
		}{3, key, sim.Metrics{Scheme: "rrm", Workload: "GemsFDTD", IPC: 7}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plant(filepath.Join(root, "outside.json"), "../outside")
	plant(filepath.Join(dir, "inside.json"), "inside")
	_, ts := newTestServer(t, Options{CacheDir: dir})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, suffix := range []string{"", "/result"} {
		if code := get("/api/v1/jobs/inside" + suffix); code != http.StatusOK {
			t.Fatalf("GET inside%s = %d, want 200", suffix, code)
		}
		if code := get("/api/v1/jobs/..%2Foutside" + suffix); code != http.StatusNotFound {
			t.Errorf("GET ..%%2Foutside%s = %d, want 404", suffix, code)
		}
	}
}

// TestQueueFullBackpressure: with one worker and a one-slot queue, a
// third concurrent submission bounces with 429 and Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueSize: 1, Sim: gatedSim(started, release),
	})

	code, first := postJob(t, ts, submitBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", code)
	}
	<-started // worker holds job 1; the queue slot is free again

	code, second := postJob(t, ts, submitBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d, want 202", code)
	}

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(submitBody(3)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(release)
	if st := waitState(t, ts, first.ID); st.State != "done" {
		t.Fatalf("job 1 final state %q", st.State)
	}
	if st := waitState(t, ts, second.ID); st.State != "done" {
		t.Fatalf("job 2 final state %q", st.State)
	}
}

// sseStates parses "event:" lines out of an SSE stream.
func sseStates(t *testing.T, r io.Reader) []string {
	t.Helper()
	var states []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			states = append(states, rest)
		}
	}
	return states
}

// TestStreamSSEOrdering: a live SSE subscriber sees the ordered
// lifecycle and the stream terminates with the job.
func TestStreamSSEOrdering(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 1, Sim: gatedSim(started, release)})

	_, sr := postJob(t, ts, submitBody(5))
	<-started // job is running, not yet done

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(release)

	states := sseStates(t, resp.Body) // returns at stream end (terminal event)
	want := []string{"queued", "running", "done"}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("SSE states %v, want %v", states, want)
	}
}

// TestStreamNDJSONReplay: a subscriber arriving after completion gets
// the whole ordered history as NDJSON, with monotonically increasing
// sequence numbers, then EOF.
func TestStreamNDJSONReplay(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, sr := postJob(t, ts, submitBody(9))
	waitState(t, ts, sr.ID)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + sr.ID + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	want := []string{"queued", "running", "done"}
	for i, ev := range events {
		if ev.State != want[i] {
			t.Errorf("event %d state %q, want %q", i, ev.State, want[i])
		}
		if ev.Seq != i+1 {
			t.Errorf("event %d seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.JobID != sr.ID {
			t.Errorf("event %d job id %q", i, ev.JobID)
		}
	}
}

// TestGracefulShutdownDrains: Shutdown waits for the in-flight job,
// rejects new submissions while draining, and completes cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	dir := t.TempDir()
	srv, ts := newTestServer(t, Options{Workers: 1, CacheDir: dir, Sim: gatedSim(started, release)})

	_, sr := postJob(t, ts, submitBody(21))
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Intake must turn away new work while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := postJob(t, ts, submitBody(22))
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server kept accepting submissions")
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := waitState(t, ts, sr.ID); st.State != "done" {
		t.Fatalf("in-flight job final state %q, want done (drained)", st.State)
	}

	// The drained job's result reached the disk cache: a fresh server
	// over the same directory serves it without simulating.
	var ran atomic.Int64
	_, ts2 := newTestServer(t, Options{CacheDir: dir, Sim: countingSim(&ran, instantSim)})
	code, sr2 := postJob(t, ts2, submitBody(21))
	if code != http.StatusOK || sr2.State != "done" || ran.Load() != 0 {
		t.Fatalf("post-drain cache: code %d state %q ran %d", code, sr2.State, ran.Load())
	}
}

// TestShutdownCancelsOverdueJobs: when the drain budget expires, the
// in-flight simulation is cancelled through its context.
func TestShutdownCancelsOverdueJobs(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, ts := newTestServer(t, Options{
		Workers: 1,
		Sim: func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
			started <- struct{}{}
			<-ctx.Done() // simulate a run that only stops via cancellation
			return sim.Metrics{}, ctx.Err()
		},
	})
	_, sr := postJob(t, ts, submitBody(31))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown error %v, want deadline exceeded", err)
	}
	if st := waitState(t, ts, sr.ID); st.State != "failed" {
		t.Fatalf("cancelled job state %q, want failed", st.State)
	}
}

// TestMetricsAndHealthz: the Prometheus exposition carries the engine
// counters and /healthz reports build info.
func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueSize: 3})
	_, sr := postJob(t, ts, submitBody(41))
	waitState(t, ts, sr.ID)
	postJob(t, ts, submitBody(41)) // one dedup hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(blob)
	for _, want := range []string{
		"rrmserve_jobs_submitted_total 2",
		"rrmserve_jobs_deduplicated_total 1",
		"rrmserve_jobs_done_total 1",
		"rrmserve_jobs_failed_total 0",
		"rrmserve_jobs_running 0",
		"rrmserve_queue_depth 0",
		"rrmserve_queue_capacity 3",
		"rrmserve_job_duration_seconds_count 1",
		`rrmserve_job_duration_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" {
		t.Errorf("healthz status %v", hz["status"])
	}
	if v, _ := hz["version"].(string); v == "" {
		t.Error("healthz missing version")
	}
}

// TestDiscoveryEndpoints: workloads and schemes listings match the
// simulator's catalogs.
func TestDiscoveryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var wl struct {
		Workloads []struct {
			Name  string   `json:"name"`
			Cores []string `json:"cores"`
		} `json:"workloads"`
	}
	resp, err := http.Get(ts.URL + "/api/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&wl)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Workloads) != 11 {
		t.Fatalf("%d workloads, want 11", len(wl.Workloads))
	}

	var sch struct {
		Schemes []string `json:"schemes"`
	}
	resp, err = http.Get(ts.URL + "/api/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&sch)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Schemes) != 6 {
		t.Fatalf("schemes %v, want 6 entries", sch.Schemes)
	}
}

// TestConcurrentSubmissions: >= 32 concurrent submissions over 8
// distinct configs — exactly 8 simulations run, every job completes,
// and the bookkeeping stays consistent (run with -race).
func TestConcurrentSubmissions(t *testing.T) {
	var ran atomic.Int64
	_, ts := newTestServer(t, Options{
		Sim: countingSim(&ran, func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
			time.Sleep(time.Millisecond)
			return instantSim(ctx, cfg)
		}),
	})

	const submitters = 40
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, sr := postJob(t, ts, submitBody(uint64(i%8)+1))
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit %d: status %d", i, code)
				return
			}
			ids[i] = sr.ID
		}(i)
	}
	wg.Wait()

	uniq := map[string]bool{}
	for _, id := range ids {
		if id == "" {
			continue
		}
		uniq[id] = true
		if st := waitState(t, ts, id); st.State != "done" {
			t.Errorf("job %s state %q", id, st.State)
		}
	}
	if len(uniq) != 8 {
		t.Fatalf("%d unique jobs, want 8", len(uniq))
	}
	if got := ran.Load(); got != 8 {
		t.Fatalf("%d simulations ran, want 8 (idempotency under contention)", got)
	}

	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 8 {
		t.Fatalf("list has %d jobs, want 8", len(list.Jobs))
	}
}

// TestRealSimulationEndToEnd runs one genuinely simulated tiny job
// through the full HTTP path (no fake SimFunc).
func TestRealSimulationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	srv, err := New(Options{Workers: 1}) // nil Sim: the real simulator
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	body, _ := json.Marshal(SubmitRequest{Scheme: "static-7", Workload: "GemsFDTD", Quick: true})
	code, sr := postJob(t, ts, string(body))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	st := waitState(t, ts, sr.ID)
	if st.State != "done" {
		t.Fatalf("state %q: %s", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Metrics.IPC <= 0 || jr.Metrics.Instructions == 0 {
		t.Fatalf("implausible metrics: %+v", jr.Metrics)
	}
	// The metrics round-tripped through ModeWrites' name-keyed JSON.
	if len(jr.Metrics.WritesByMode) == 0 {
		t.Fatal("WritesByMode did not survive serialization")
	}
}

package server

import (
	"context"
	"net/http"
	"testing"

	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
)

// TestSampledSubmissionIdentity: a sampled submission denotes a
// different job than the full run of the same config — distinct engine
// keys, so the run cache and the live job registry can never serve one
// for the other — and distinct sampling specs are themselves distinct.
func TestSampledSubmissionIdentity(t *testing.T) {
	base := SubmitRequest{Scheme: "rrm", Workload: "GemsFDTD", Quick: true, Seed: 3}
	full, err := BuildJob(base)
	if err != nil {
		t.Fatal(err)
	}
	sampled := base
	sampled.Sampling = &sim.SamplingSpec{
		Windows: 8, Window: 5 * timing.Microsecond, DetailWarmup: 2 * timing.Microsecond,
	}
	sj, err := BuildJob(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Key == full.Key {
		t.Fatal("sampled and full submissions share a job key")
	}
	wider := sampled
	wider.Sampling = &sim.SamplingSpec{
		Windows: 15, Window: 5 * timing.Microsecond, DetailWarmup: 2 * timing.Microsecond,
	}
	wj, err := BuildJob(wider)
	if err != nil {
		t.Fatal(err)
	}
	if wj.Key == sj.Key {
		t.Fatal("different sampling budgets share a job key")
	}
}

// TestSampledSubmissionHTTP: the sampling field reaches the built config
// over the wire, bad specs are rejected up front, and double
// specification (top level and inside config) is a client error.
func TestSampledSubmissionHTTP(t *testing.T) {
	var got *sim.SamplingSpec
	_, ts := newTestServer(t, Options{Workers: 1, Sim: func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
		got = cfg.Sampling
		return sim.Metrics{Scheme: cfg.Scheme.Name(), Workload: cfg.Workload.Name}, nil
	}})

	body := `{"scheme":"rrm","workload":"GemsFDTD","quick":true,
		"sampling":{"windows":8,"window":5000,"detail_warmup":2000}}`
	code, sr := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("sampled submit status %d, want 202", code)
	}
	if st := waitState(t, ts, sr.ID); st.State != "done" {
		t.Fatalf("sampled job state %q (%s)", st.State, st.Error)
	}
	if got == nil || got.Windows != 8 || got.Window != 5000 || got.DetailWarmup != 2000 {
		t.Fatalf("sampling spec did not reach the simulation: %+v", got)
	}

	for _, bad := range []string{
		// One window: no variance, Validate rejects.
		`{"scheme":"rrm","workload":"GemsFDTD","quick":true,"sampling":{"windows":1,"window":5000}}`,
		// Window larger than its segment.
		`{"scheme":"rrm","workload":"GemsFDTD","quick":true,"sampling":{"windows":1000000,"window":5000000}}`,
	} {
		if code, _ := postJob(t, ts, bad); code != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", bad, code)
		}
	}
}

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

func getStatus(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestReadinessLivenessSplit: /healthz is the routing decision (503
// once the server is draining), /livez is the restart decision (200
// for as long as the process answers at all).
func TestReadinessLivenessSplit(t *testing.T) {
	srv, ts := newTestServer(t, Options{QueueSize: 4})

	code, body := getStatus(t, ts.URL+"/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("fresh server /healthz = %d %v, want 200 ok", code, body["status"])
	}
	if code, body := getStatus(t, ts.URL+"/livez"); code != http.StatusOK || body["status"] != "alive" {
		t.Fatalf("fresh server /livez = %d %v, want 200 alive", code, body["status"])
	}
	if !srv.Ready() {
		t.Fatal("fresh server not Ready()")
	}

	// Draining is unready, and liveness holds until the process exits.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, body = getStatus(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("draining /healthz = %d %v, want 503 draining", code, body["status"])
	}
	if code, _ := getStatus(t, ts.URL+"/livez"); code != http.StatusOK {
		t.Errorf("draining /livez = %d, want 200", code)
	}
	if srv.Ready() {
		t.Error("Ready() true while draining")
	}
}

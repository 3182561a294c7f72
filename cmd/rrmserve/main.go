// Command rrmserve is the HTTP simulation service: submit RRM
// simulation jobs over JSON, follow their progress as SSE/NDJSON
// streams, fetch results, and scrape Prometheus metrics.
//
// Usage:
//
//	rrmserve [-addr :8321] [-queue 64] [-workers N] [-cache-dir dir]
//	         [-warm-start] [-pprof] [-job-timeout d]
//	         [-request-timeout 30s] [-drain-timeout 30s] [-version]
//
// Endpoints:
//
//	POST /api/v1/jobs              submit {"scheme":"rrm","workload":"GemsFDTD","quick":true}
//	                               or a full {"config":{...}} document (unknown
//	                               fields are refused with 400)
//	GET  /api/v1/jobs              list known jobs
//	GET  /api/v1/jobs/{id}         job status
//	GET  /api/v1/jobs/{id}/result  metrics (also served from the run cache)
//	GET  /api/v1/jobs/{id}/events  progress stream (SSE; ?format=ndjson for NDJSON)
//	GET  /api/v1/workloads         submittable workloads
//	GET  /api/v1/schemes           submittable schemes
//	GET  /metrics                  Prometheus text exposition
//	GET  /healthz                  readiness (503 while draining)
//	GET  /livez                    liveness (200 while the process answers)
//	GET  /debug/pprof/             Go profiling endpoints (with -pprof only)
//
// -warm-start shares simulation warmup across jobs whose configs differ
// only in post-warmup knobs; with -cache-dir, warm snapshots persist
// under <cache-dir>/snapshots. Results are bit-identical either way.
//
// SIGINT/SIGTERM triggers a graceful drain: intake stops (503), queued
// and running jobs finish, and only after -drain-timeout are in-flight
// simulations cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rrmpcm/internal/buildinfo"
	"rrmpcm/internal/server"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	queue := flag.Int("queue", 64, "job queue capacity (submissions beyond it get 429)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "disk-backed run cache directory (empty = no cache)")
	warmStart := flag.Bool("warm-start", false, "share simulation warmup across jobs with equal warm prefixes")
	pprofOn := flag.Bool("pprof", false, "expose Go profiling endpoints under /debug/pprof/")
	jobTimeout := flag.Duration("job-timeout", 0, "per-simulation wall-clock budget (0 = none)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "non-streaming request timeout")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown drain budget before in-flight jobs are cancelled")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	srv, err := server.New(server.Options{
		QueueSize:      *queue,
		Workers:        *workers,
		CacheDir:       *cacheDir,
		JobTimeout:     *jobTimeout,
		RequestTimeout: *reqTimeout,
		WarmStart:      *warmStart,
	})
	if err != nil {
		log.Fatalf("rrmserve: %v", err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: withPprof(srv.Handler(), *pprofOn)}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("rrmserve %s listening on %s (queue %d, cache %q)",
			buildinfo.Version(), *addr, *queue, *cacheDir)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("rrmserve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("rrmserve: draining (budget %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("rrmserve: http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("rrmserve: job drain: %v", err)
	} else {
		log.Printf("rrmserve: drained cleanly")
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("rrmserve: %v", err)
	}
}

// withPprof wraps handler with the Go profiling endpoints on an outer
// mux so the service's own routing (and its request timeouts) never
// sees them.
func withPprof(handler http.Handler, on bool) http.Handler {
	if !on {
		return handler
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", handler)
	return mux
}

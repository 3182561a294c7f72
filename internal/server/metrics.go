package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"rrmpcm/internal/engine"
)

// latencyBuckets are the per-job wall-clock histogram bounds in
// seconds. Quick-mode jobs land in the sub-second buckets, full paper
// runs in the tens-of-seconds range.
var latencyBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// serverMetrics aggregates the counters exported at /metrics in
// Prometheus text exposition format. Counters are atomics (hot paths:
// every submission and every engine event); the histogram keeps one
// mutex. It implements engine.Observer, so running/done/failed counts,
// cache hits and the latency histogram come straight from the engine's
// lifecycle events rather than a parallel server-side bookkeeping.
type serverMetrics struct {
	submitted atomic.Uint64 // POST /api/v1/jobs accepted for processing
	deduped   atomic.Uint64 // submissions answered by an existing job
	rejected  atomic.Uint64 // submissions bounced with 429 (queue full)
	done      atomic.Uint64
	failed    atomic.Uint64
	running   atomic.Int64 // gauge
	cacheHits atomic.Uint64
	cacheMiss atomic.Uint64

	// Reliability-model aggregates, summed over every finished job that
	// ran with the fault model enabled (jobs without it contribute
	// nothing — Metrics.Reliability is nil there).
	relReadsChecked  atomic.Uint64
	relCorrected     atomic.Uint64
	relUncorrectable atomic.Uint64
	relBitFlips      atomic.Uint64
	relScrubs        atomic.Uint64

	histMu    sync.Mutex
	histCount []uint64 // per latencyBuckets bound, non-cumulative
	histInf   uint64
	histSum   float64
	histN     uint64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{histCount: make([]uint64, len(latencyBuckets))}
}

// ObserveJob implements engine.Observer.
func (m *serverMetrics) ObserveJob(ev engine.JobEvent) {
	switch ev.State {
	case engine.JobStateRunning:
		m.running.Add(1)
	case engine.JobStateDone:
		m.running.Add(-1)
		m.done.Add(1)
		if ev.Result != nil {
			if ev.Result.Cached {
				m.cacheHits.Add(1)
			} else {
				m.cacheMiss.Add(1)
			}
			m.observeLatency(ev.Result.Wall.Seconds())
			if rel := ev.Result.Metrics.Reliability; rel != nil {
				m.relReadsChecked.Add(rel.ReadsChecked)
				m.relCorrected.Add(rel.CorrectedReads)
				m.relUncorrectable.Add(rel.Uncorrectable())
				m.relBitFlips.Add(rel.BitFlipsCorrected)
				m.relScrubs.Add(rel.ScrubsOnWrite + rel.ScrubsOnRefresh + rel.PatrolIssued)
			}
		}
	case engine.JobStateFailed:
		m.running.Add(-1)
		m.failed.Add(1)
	}
}

func (m *serverMetrics) observeLatency(sec float64) {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	m.histSum += sec
	m.histN++
	for i, b := range latencyBuckets {
		if sec <= b {
			m.histCount[i]++
			return
		}
	}
	m.histInf++
}

// render writes the full exposition. queueDepth/queueCap/uptime and
// the engine's sims-executed counter are owned by the server and
// passed in.
func (m *serverMetrics) render(w io.Writer, queueDepth, queueCap int, uptimeSeconds float64, simsExecuted uint64) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("rrmserve_jobs_submitted_total", "Job submissions accepted for processing.", m.submitted.Load())
	counter("rrmserve_jobs_deduplicated_total", "Submissions answered by an already-known job (idempotency hits).", m.deduped.Load())
	counter("rrmserve_jobs_rejected_total", "Submissions rejected with 429 because the queue was full.", m.rejected.Load())
	counter("rrmserve_jobs_done_total", "Jobs finished successfully.", m.done.Load())
	counter("rrmserve_jobs_failed_total", "Jobs finished with an error.", m.failed.Load())
	counter("rrmserve_cache_hits_total", "Jobs satisfied from the disk run cache.", m.cacheHits.Load())
	counter("rrmserve_cache_misses_total", "Jobs that had to simulate (run-cache misses).", m.cacheMiss.Load())
	counter("rrmserve_sims_executed_total", "Simulations this process actually launched (run-cache hits excluded).", simsExecuted)
	counter("rrmserve_reliability_reads_checked_total", "Demand reads inspected by the reliability model across finished jobs.", m.relReadsChecked.Load())
	counter("rrmserve_reliability_corrected_reads_total", "Demand reads the ECC model corrected across finished jobs.", m.relCorrected.Load())
	counter("rrmserve_reliability_uncorrectable_total", "Uncorrectable errors (reads, scrub inspections and final sweeps) across finished jobs.", m.relUncorrectable.Load())
	counter("rrmserve_reliability_bit_flips_corrected_total", "Individual bit flips corrected by ECC across finished jobs.", m.relBitFlips.Load())
	counter("rrmserve_reliability_scrubs_total", "Scrub events (demand writes, refreshes and patrol issues) across finished jobs.", m.relScrubs.Load())
	gauge("rrmserve_jobs_running", "Jobs currently executing on the engine.", float64(m.running.Load()))
	gauge("rrmserve_queue_depth", "Jobs waiting in the bounded queue.", float64(queueDepth))
	gauge("rrmserve_queue_capacity", "Capacity of the bounded queue.", float64(queueCap))
	gauge("rrmserve_uptime_seconds", "Seconds since the server started.", uptimeSeconds)

	m.histMu.Lock()
	defer m.histMu.Unlock()
	const hist = "rrmserve_job_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Per-job wall-clock time (cache hits are near zero).\n# TYPE %s histogram\n", hist, hist)
	cum := uint64(0)
	for i, b := range latencyBuckets {
		cum += m.histCount[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", hist, trimFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", hist, cum+m.histInf)
	fmt.Fprintf(w, "%s_sum %g\n", hist, m.histSum)
	fmt.Fprintf(w, "%s_count %d\n", hist, m.histN)
}

// trimFloat formats a bucket bound the Prometheus way ("0.25", "5").
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

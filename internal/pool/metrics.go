package pool

import (
	"srda/internal/obs"
)

// Pool utilization instruments, registered on the process-wide obs
// registry so srdaserve's debug endpoint (and anything else that exposes
// obs.Default()) can see how the kernel layer is scheduling.  The counters
// aggregate across every Pool in the process; in practice that is the
// shared pool plus short-lived test pools.
//
// A "submitted" span is one Run hands off via the task channel — the last
// span of every Run executes on the caller by design and is not counted.
// Submitted spans split into dispatched (a parked worker took the handoff)
// and inline (no worker was idle, so the submitting goroutine ran the span
// itself — the fallback that keeps nested Runs deadlock-free).  The
// queue-wait histogram measures handoff latency, from just before the
// channel send to the worker starting the span, for dispatched spans only.
//
// Timing goes through obs.Stamp rather than the time package directly:
// internal/obs is the sole sanctioned clock owner under the noclock lint
// contract, and the measurement never feeds back into any numeric result.
var (
	spansDispatched = obs.Default().NewCounter("srdapool_spans_dispatched_total",
		"Pool spans handed to a parked worker.")
	spansInline = obs.Default().NewCounter("srdapool_spans_inline_total",
		"Pool spans run inline because no worker was idle.")
	queueWait = obs.Default().NewHistogram("srdapool_queue_wait_seconds",
		"Handoff latency from span submission to worker pick-up.")
)

func init() {
	obs.Default().NewGaugeFunc("srdapool_workers",
		"Worker goroutines in the shared pool.",
		func() int64 { return int64(shared.size) })
}

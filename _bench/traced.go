package main

import (
	"fmt"
	"time"
)

// layerDef describes one per-layer metric and the end-to-end metric and
// workload it should move.  End-to-end names are the declared metric,
// with the workload-specific name it stands for in parentheses.
type layerDef struct {
	name, unit, better, moves string
}

const (
	fitText     = "op_p50_ms (fit_s) @ fit-text"
	fitDense    = "op_p50_ms (fit_s) @ fit-dense"
	predictP50  = "op_p50_ms (predict_p50_ms) @ serve-predict"
	predictCPU  = "cpu_ms_per_op (serve_cpu_ms_per_req) @ serve-predict"
	predictTail = "predict_p99_ms @ serve-predict"
	onlineRefit = "refit_visible_ms @ serve-online"
	onlineObs   = "observe_p50_ms @ serve-online"
)

var layerDefs = []layerDef{
	{"core.responses_ms.fit-text", "ms", "lower", fitText + "; a small share that should not move"},
	{"sparse.apply_ms", "ms", "lower", fitText},
	{"sparse.applyT_ms", "ms", "lower", fitText},
	{"sparse.calls", "count", "lower", fitText + "; exact"},
	{"sparse.gbps_computed", "GB/s", "higher", fitText + "; bytes computed from nnz and vector lengths"},
	{"solver.lsqr_iters", "count", "lower", fitText + "; exact, from Model.Stats"},
	{"solver.lsqr_self_ms", "ms", "lower", fitText + "; LSQR wall time minus operator time"},
	{"core.centroids_ms.fit-text", "ms", "lower", fitText},
	{"trace.unaccounted_pct.fit-text", "%", "lower", fitText + "; share of the replayed fit no layer time covers"},
	{"trace.overhead_pct.fit-text", "%", "lower", fitText + "; traced replay minus untraced fit"},

	{"core.responses_ms.fit-dense", "ms", "lower", fitDense + "; a small share that should not move"},
	{"mat.gram_ms", "ms", "lower", fitDense},
	{"mat.gram_gflops_computed", "GFLOP/s", "higher", fitDense + "; flops computed from the shape"},
	{"decomp.chol_ms", "ms", "lower", fitDense},
	{"decomp.solve_ms", "ms", "lower", fitDense},
	{"core.centroids_ms.fit-dense", "ms", "lower", fitDense},
	{"trace.unaccounted_pct.fit-dense", "%", "lower", fitDense + "; share of the replayed fit no layer time covers"},
	{"trace.overhead_pct.fit-dense", "%", "lower", fitDense + "; traced replay minus untraced fit"},

	{"serve.request_ms_mean", "ms", "lower", predictP50 + "; worker srdaserve_request_duration_seconds"},
	{"router.forward_ms_mean", "ms", "lower", predictP50 + "; router srdaroute_forward_seconds"},
	{"http.hop_ms", "ms", "lower", predictP50 + " and " + predictTail + "; forward time minus worker time"},
	{"router.self_ms", "ms", "lower", predictP50 + " and " + predictTail + "; client time minus forward time"},
	{"serve.rows_per_batch", "rows", "higher", predictCPU + "; samples_total / batches_total"},
	{"serve.queue_rejects.serve-predict", "count", "lower", "slo_miss_pct @ serve-predict"},
	{"proc.router_cpu_ms_per_req.serve-predict", "ms", "lower", predictCPU},
	{"proc.worker_cpu_ms_per_req.serve-predict", "ms", "lower", predictCPU},
	{"loadgen.lag_p99_ms.serve-predict", "ms", "lower", predictTail + "; send time minus due time"},

	{"serve.queue_rejects.serve-online", "count", "lower", "slo_miss_pct @ serve-online"},
	{"proc.router_cpu_ms_per_req.serve-online", "ms", "lower", "cpu_ms_per_op (serve_cpu_ms_per_req) @ serve-online"},
	{"proc.worker_cpu_ms_per_req.serve-online", "ms", "lower", "cpu_ms_per_op (serve_cpu_ms_per_req) @ serve-online"},
	{"online.refits", "count", "higher", onlineRefit + "; exact"},
	{"online.publishes", "count", "higher", onlineRefit + "; exact"},
	{"loadgen.lag_p99_ms.serve-online", "ms", "lower", "predict_p99_ms @ serve-online; send time minus due time"},

	{"serve.decode_us.dense1", "us", "lower", predictP50 + " and " + predictCPU},
	{"serve.decode_us.dense8", "us", "lower", predictP50 + " and " + predictCPU},
	{"serve.decode_us.sparse1", "us", "lower", predictP50 + " and " + predictCPU},
	{"serve.encode_us", "us", "lower", predictP50 + " and " + predictCPU},
	{"serve.predict_us", "us", "lower", predictP50 + "; Server.Predict"},
	{"core.predict_batch_us", "us", "lower", predictP50 + "; Model.PredictBatch(CSR) at request shapes"},
	{"serve.queue_us", "us", "lower", predictP50 + "; batcher hold plus dispatch"},
	{"serve.allocs_per_req", "count", "lower", predictCPU + "; Server.Predict"},
	{"serve.bytes_per_req", "B", "lower", predictCPU + "; Server.Predict"},
	{"router.route_us", "us", "lower", predictP50 + "; Router.Predict over LocalBackend minus Server.Predict"},
	{"router.allocs_per_req", "count", "lower", predictP50 + "; Router.Predict over LocalBackend"},
	{"router.bytes_per_req", "B", "lower", predictP50 + "; Router.Predict over LocalBackend"},
	{"router.http_forward_us", "us", "lower", predictP50 + "; HTTPBackend.Predict"},
	{"http.loopback_us", "us", "lower", predictP50 + "; same body to a no-op handler, the transport floor"},
	{"core.predict_batch_allocs", "count", "lower", predictCPU + "; Model.PredictBatch(CSR)"},
	{"core.predict_batch_bytes", "B", "lower", predictCPU + "; Model.PredictBatch(CSR)"},
	{"registry.get_ns", "ns", "lower", "predict_p99_ms @ serve-*"},
	{"registry.publish_us", "us", "lower", "predict_p99_ms @ serve-online"},
	{"obs.p99_query_us", "us", "lower", "cpu_ms_per_op (serve_cpu_ms_per_req) @ serve-*; paid on every request"},
	{"online.observe_us", "us", "lower", onlineObs + "; StreamTrainer.Observe"},
	{"online.observe_allocs", "count", "lower", onlineObs + "; StreamTrainer.Observe"},
	{"online.observe_bytes", "B", "lower", onlineObs + "; StreamTrainer.Observe"},
	{"core.absorb_us", "us", "lower", onlineObs + "; SuffStats.Absorb"},
	{"online.refit_ms", "ms", "lower", onlineRefit + " and observe_p99_ms @ serve-online; StreamTrainer.Refit"},
}

// runTraced measures every layer: the two fit replays, the in-process
// serving replay, and both serving topologies scraped from outside.
// It covers all workloads whatever --workload names, so every traced
// run reports the same per-layer metrics.
func runTraced(cfg config, rep *report) error {
	all := layerTimes{}
	steps := []func() (layerTimes, error){
		func() (layerTimes, error) { return fitLayers(cfg, "fit-text", rep) },
		func() (layerTimes, error) { return fitLayers(cfg, "fit-dense", rep) },
		func() (layerTimes, error) { return serveLayers(cfg, rep) },
		func() (layerTimes, error) { return processLayers(cfg, false, rep) },
		func() (layerTimes, error) { return processLayers(cfg, true, rep) },
	}
	for _, step := range steps {
		lt, err := step()
		if err != nil {
			return err
		}
		for k, v := range lt {
			all[k] = v
		}
	}
	for _, d := range layerDefs {
		v, ok := all[d.name]
		if !ok {
			return fmt.Errorf("layer metric %s was not measured", d.name)
		}
		rep.metric(d.name, v, d.unit, "-> "+d.moves)
	}
	if len(all) != len(layerDefs) {
		return fmt.Errorf("measured %d layer metrics, %d are declared", len(all), len(layerDefs))
	}
	return nil
}

// tracedWindow caps each window of a traced serving run; per-layer
// numbers carry no bound, and it keeps a traced run near a minute.
const tracedWindow = 5 * time.Second

// processLayers runs one serving topology for one window bracketed by
// /metrics scrapes of both processes, whose deltas give the per-layer
// numbers.  The scrapes fall outside the window, so tracing adds
// nothing to it and no trace.overhead_pct is reported for serving.
func processLayers(cfg config, online bool, rep *report) (layerTimes, error) {
	wl := "serve-predict"
	if online {
		wl = "serve-online"
	}
	window := time.Duration(cfg.seconds / 2 * float64(time.Second))
	if window > tracedWindow {
		window = tracedWindow
	}
	s, ss, err := runSession(cfg, online, window, 1, true)
	if err != nil {
		return nil, err
	}
	st := summarize(s, ss, rep)
	if len(st.predictLat) == 0 {
		return nil, fmt.Errorf("%s: no predict succeeded", wl)
	}
	rep.ops(st.predicts+st.observes, st.predictFailed+st.obsFailed)
	w := delta(s.workerBefore, s.workerAfter)
	r := delta(s.routerBefore, s.routerAfter)
	requests := float64(s.served)
	lt := layerTimes{
		"serve.queue_rejects." + wl:        w("srdaserve_queue_rejects_total"),
		"proc.router_cpu_ms_per_req." + wl: ms(s.routerCPU) / requests,
		"proc.worker_cpu_ms_per_req." + wl: ms(s.workerCPU) / requests,
		"loadgen.lag_p99_ms." + wl:         quantile(st.lag, 0.99),
	}
	if online {
		lt["online.refits"] = w("srdaonline_refits_total")
		lt["online.publishes"] = w("srdaonline_publishes_total")
		rep.note("%s: one %v window, %d predicts and %d observes scraped", wl, window, st.predicts, st.observes)
		return lt, nil
	}
	reqMs := 1e3 * w("srdaserve_request_duration_seconds_sum") / w("srdaserve_request_duration_seconds_count")
	fwdMs := 1e3 * r("srdaroute_forward_seconds_sum") / r("srdaroute_forward_seconds_count")
	lt["serve.request_ms_mean"] = reqMs
	lt["router.forward_ms_mean"] = fwdMs
	lt["http.hop_ms"] = fwdMs - reqMs
	lt["router.self_ms"] = mean(st.service) - fwdMs
	lt["serve.rows_per_batch"] = w("srdaserve_samples_total") / w("srdaserve_batches_total")
	rep.note("%s: one %v window, %d predicts scraped", wl, window, st.predicts)
	return lt, nil
}

// delta returns a lookup of after-minus-before for one process's scrape.
func delta(before, after map[string]float64) func(string) float64 {
	return func(name string) float64 { return after[name] - before[name] }
}

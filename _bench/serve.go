package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"srda/internal/serve"
)

// Offered load.  serve-predict offers about a third of the capacity the
// parent commit reached on the sizing machine, and serve-online offers
// predicts and observes 1:1 at a rate that keeps its single predict
// connection far from saturation: at higher rates queueing at the
// client's connections amplified every slow spell of the machine into
// the p50 (README, "Sizing").  refitSamples gives a 15 s run three
// refits, the last well before the window ends.
const (
	predictRate       = 100.0 // serve-predict, requests/s
	onlinePredictRate = 25.0  // serve-online, requests/s
	onlineObserveRate = 25.0  // serve-online, requests/s of observeRows samples
	refitSamples      = 400
	sloLimit          = 50 * time.Millisecond
	warmupTime        = time.Second
	setupLaunches     = 9
	// lateLimit is how late the generator itself may hand one in ten
	// operations to a connection (p90) before the run is declared
	// invalid.  Rarer hiccups, when a busy machine leaves the generator
	// unscheduled for a few ms, are already charged to the requests
	// they delay, since latency is timed from the due time.
	lateLimit = 10 * time.Millisecond
)

// workerFlags and routerFlags are the srdaserve flags the benchmark
// uses; everything else is the shipped default (-max-batch 64,
// -max-wait 2ms, -workers GOMAXPROCS).
func workerFlags(ss *servingSet, online bool) []string {
	args := []string{"-role=worker", "-addr=127.0.0.1:0", "-debug-addr=127.0.0.1:0"}
	if online {
		return append(args, "-model="+ss.dir, "-online", fmt.Sprintf("-refit-samples=%d", refitSamples))
	}
	return append(args, "-models-dir="+ss.dir)
}

func routerFlags(workerURL string) []string {
	return []string{"-role=router", "-addr=127.0.0.1:0", "-replicas=" + workerURL}
}

// topology is one router process forwarding to one worker process.
type topology struct {
	worker, router *proc
}

// launch starts the topology and returns once every tenant answers a
// predict through the router; the elapsed time is the set-up time.
func launch(cfg config, ss *servingSet, online bool) (*topology, time.Duration, int, error) {
	t0 := time.Now()
	w, err := startProc(cfg, "worker", true, workerFlags(ss, online)...)
	if err != nil {
		return nil, 0, 0, err
	}
	r, err := startProc(cfg, "router", false, routerFlags(w.addr)...)
	if err != nil {
		w.stop()
		return nil, 0, 0, err
	}
	tp := &topology{worker: w, router: r}
	probes := 0
	for t := range ss.names {
		var req *predictReq // a single dense row, so the probe costs the same for every seed
		for _, p := range ss.pool {
			if p.tenant == t && p.shape == "dense1" {
				req = p
				break
			}
		}
		for {
			probes++
			var resp serve.PredictResponse
			_, err := postJSON(ctlClient, r.addr+"/v1/predict", req.body, &resp)
			if err == nil {
				break
			}
			if time.Since(t0) > 30*time.Second {
				tp.stop()
				return nil, 0, 0, fmt.Errorf("tenant %s never answered: %w", ss.names[t], err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return tp, time.Since(t0), probes, nil
}

// stop drains both processes and returns their CPU time.
func (tp *topology) stop() (router, worker time.Duration) {
	router = tp.router.stop()
	worker = tp.worker.stop()
	return router, worker
}

// session is one launch of the topology and one measured window.
type session struct {
	online    bool
	setup     []float64 // seconds, one per launch
	ops       []op
	out       []outcome
	window    time.Duration
	routerCPU time.Duration
	workerCPU time.Duration
	served    int     // requests the measured processes answered in total
	allocMB   float64 // worker heap allocation over the window
	// Scrapes of /metrics before and after the window (traced runs).
	workerBefore, workerAfter map[string]float64
	routerBefore, routerAfter map[string]float64
	final                     *outcome // serve-online: the final model's answers on the probe rows
}

// runSession launches the topology `launches` times (all but the last
// only to time set-up), warms it up, and runs one open-loop window.
func runSession(cfg config, online bool, window time.Duration, launches int, scrapeMetrics bool) (*session, *servingSet, error) {
	pRate, oRate := predictRate, 0.0
	if online {
		pRate, oRate = onlinePredictRate, onlineObserveRate
	}
	s := &session{online: online, window: window}
	s.ops = schedule(cfg.seed, window, pRate, oRate)
	observes := 0
	for _, o := range s.ops {
		if o.kind == opObserve {
			observes++
		}
	}
	ss, err := buildServing(cfg, online, observes)
	if err != nil {
		return nil, nil, err
	}
	var tp *topology
	for i := 0; i < launches; i++ {
		var d time.Duration
		var probes int
		runtime.GC()
		tp, d, probes, err = launch(cfg, ss, online)
		if err != nil {
			return nil, nil, err
		}
		s.setup = append(s.setup, d.Seconds())
		s.served = probes
		if i < launches-1 {
			tp.stop()
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			tp.stop()
		}
	}()

	predictCh := opChan(s.ops)
	lanes := []*lane{newLane(tp.router.addr+"/v1/predict", predictCh)}
	var observeLane *lane
	if online {
		observeLane = newLane(tp.worker.addr+"/v1/observe", opChan(s.ops))
		lanes = append(lanes, observeLane)
	} else {
		lanes = append(lanes, newLane(tp.router.addr+"/v1/predict", predictCh))
	}
	defer func() {
		for _, l := range lanes {
			l.close()
		}
	}()
	s.served += warmup(ss, lanes, online)
	runtime.GC()

	if scrapeMetrics {
		if s.workerBefore, err = scrape(tp.worker.addr); err != nil {
			return nil, nil, err
		}
		if s.routerBefore, err = scrape(tp.router.addr); err != nil {
			return nil, nil, err
		}
	}
	alloc0, err := totalAlloc(tp.worker.debugAddr)
	if err != nil {
		return nil, nil, err
	}
	s.out = runSchedule(s.ops, lanes, func(o op) *lane {
		if o.kind == opObserve {
			return observeLane
		}
		return lanes[0]
	}, func(o op) []byte {
		if o.kind == opObserve {
			return ss.observes[o.idx]
		}
		return ss.pool[o.idx%poolSize].body
	})
	alloc1, err := totalAlloc(tp.worker.debugAddr)
	if err != nil {
		return nil, nil, err
	}
	s.allocMB = (alloc1 - alloc0) / 1e6
	s.served += len(s.ops)
	if scrapeMetrics {
		if s.workerAfter, err = scrape(tp.worker.addr); err != nil {
			return nil, nil, err
		}
		if s.routerAfter, err = scrape(tp.router.addr); err != nil {
			return nil, nil, err
		}
	}
	if online {
		if s.final, err = probeFinal(tp.worker.addr, ss); err != nil {
			return nil, nil, err
		}
		s.served += (ss.probe.Rows + probeChunk - 1) / probeChunk
	}
	stopped = true
	s.routerCPU, s.workerCPU = tp.stop()
	return s, ss, nil
}

// warmup sends pool requests closed-loop on every predict lane so
// connections, pools and heaps are warm before timing.
func warmup(ss *servingSet, lanes []*lane, online bool) int {
	var wg sync.WaitGroup
	counts := make([]int, len(lanes))
	for li, l := range lanes {
		if online && li == 1 {
			continue // observes would shift the refit points
		}
		wg.Add(1)
		go func(li int, l *lane) {
			defer wg.Done()
			end := time.Now().Add(warmupTime)
			for i := li; time.Now().Before(end); i += len(lanes) {
				var o outcome
				l.do(ss.pool[i%poolSize].body, opPredict, &o)
				counts[li]++
			}
		}(li, l)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// serveStats summarizes a session's window.
type serveStats struct {
	predicts, observes       int
	predictFailed, obsFailed int
	wrong                    int // replies that differ from the local model
	rows, rowsMislabeled     int // every served row
	poolRows, poolWrong      int // distinct pool rows, or the online probe rows
	sloMiss                  int
	predictLat, observeLat   []float64 // ms from due time
	service                  []float64 // ms from send time (predicts)
	lag, late                []float64 // ms: send - due, dispatch - due
	backlog                  int       // ops due in the window but sent after it
	refitVisible             []float64 // ms
	refits                   int
	finalSeq                 uint64
	firstError               error
}

func summarize(s *session, ss *servingSet, rep *report) serveStats {
	var st serveStats
	seen := map[int]bool{}
	note := func(err error) {
		if st.firstError == nil {
			st.firstError = err
		}
	}
	for i, o := range s.ops {
		r := s.out[i]
		st.lag = append(st.lag, ms(r.sent-o.due))
		st.late = append(st.late, ms(r.dispatched-o.due))
		if r.sent > s.window {
			st.backlog++
		}
		if o.kind == opObserve {
			st.observes++
			if r.err != nil {
				st.obsFailed++
				note(r.err)
				continue
			}
			st.observeLat = append(st.observeLat, ms(r.done-o.due))
			continue
		}
		st.predicts++
		req := ss.pool[o.idx%poolSize]
		if r.err != nil {
			st.predictFailed++
			st.sloMiss++
			note(r.err)
			continue
		}
		want := req.want
		if s.online {
			m, err := ss.versionModel(r.seq, refitSamples)
			if err != nil {
				rep.check(false, "predict %d: %v", i, err)
				st.wrong++
				st.predictFailed++
				continue
			}
			want = req.predict(m)
		}
		if !rep.check(equalInts(r.classes, want), "predict %d (%s, tenant %d, model_seq %d): classes %v, local model %v",
			i, req.shape, req.tenant, r.seq, r.classes, want) {
			st.wrong++
			st.predictFailed++
			continue
		}
		lat := ms(r.done - o.due)
		st.predictLat = append(st.predictLat, lat)
		st.service = append(st.service, ms(r.done-r.sent))
		if lat > ms(sloLimit) {
			st.sloMiss++
		}
		first := !seen[o.idx%poolSize]
		seen[o.idx%poolSize] = true
		for k, c := range r.classes {
			st.rows++
			if first && !s.online {
				st.poolRows++
			}
			if c != req.labels[k] {
				st.rowsMislabeled++
				if first && !s.online {
					st.poolWrong++
				}
			}
		}
	}
	if s.online {
		st.onlineChecks(s, ss, rep)
	}
	return st
}

// onlineChecks verifies the streaming↔batch contract on the final
// served model and times how soon each refit became visible.
func (st *serveStats) onlineChecks(s *session, ss *servingSet, rep *report) {
	absorbed := (st.observes - st.obsFailed) * observeRows
	st.refits = absorbed / refitSamples
	if rep.check(s.final.err == nil, "final model probe: %v", s.final.err) {
		st.finalSeq = s.final.seq
		rep.check(s.final.seq == uint64(1+st.refits), "final model_seq %d, want %d after %d refits", s.final.seq, 1+st.refits, st.refits)
		if m, err := ss.versionModel(s.final.seq, refitSamples); rep.check(err == nil, "final model: %v", err) {
			emb := m.ProjectBatch(ss.probe, nil)
			ok := len(s.final.embeddings) == emb.Rows
			for i := 0; ok && i < emb.Rows; i++ {
				ok = sameBits(s.final.embeddings[i], emb.RowView(i))
			}
			rep.check(ok, "served model %d is not bitwise srda.Fit(SolverPrimal) on the first %d observed samples",
				s.final.seq, (int(s.final.seq)-1)*refitSamples)
			for i, c := range s.final.classes {
				if c != ss.probeLabels[i] {
					st.poolWrong++
				}
			}
			st.poolRows = len(s.final.classes)
		}
	}
	// Observe j carries samples [j·observeRows, (j+1)·observeRows); the
	// one that reaches k·refitSamples triggers refit k synchronously.
	obsAt := map[int]int{}
	for i, o := range s.ops {
		if o.kind == opObserve {
			obsAt[o.idx] = i
		}
	}
	for k := 1; k <= st.refits; k++ {
		i, ok := obsAt[(k*refitSamples-1)/observeRows]
		if !ok {
			continue
		}
		sent := s.out[i].sent
		first := time.Duration(math.MaxInt64)
		for j, o := range s.ops {
			r := s.out[j]
			if o.kind == opPredict && r.err == nil && r.seq >= uint64(1+k) && r.done < first {
				first = r.done
			}
		}
		if first != time.Duration(math.MaxInt64) {
			st.refitVisible = append(st.refitVisible, ms(first-sent))
		}
	}
}

// probeChunk is the number of rows per probe request, below the
// server's per-request sample cap.
const probeChunk = 512

// probeFinal asks the worker for the classes and embeddings of every
// probe row under the model it serves after the window.
func probeFinal(workerURL string, ss *servingSet) (*outcome, error) {
	o := &outcome{}
	for lo := 0; lo < ss.probe.Rows; lo += probeChunk {
		req := serve.PredictRequest{Embed: true}
		for i := lo; i < lo+probeChunk && i < ss.probe.Rows; i++ {
			req.Samples = append(req.Samples, serve.DenseSample(ss.probe.RowView(i)))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		var resp serve.PredictResponse
		if _, err := postJSON(ctlClient, workerURL+"/v1/predict", body, &resp); err != nil {
			o.err = err
			return o, nil
		}
		if lo > 0 && resp.ModelSeq != o.seq {
			o.err = fmt.Errorf("model_seq moved from %d to %d during the probe", o.seq, resp.ModelSeq)
			return o, nil
		}
		o.seq = resp.ModelSeq
		o.classes = append(o.classes, resp.Classes...)
		o.embeddings = append(o.embeddings, resp.Embeddings...)
	}
	return o, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runServe measures a serving workload end to end.
func runServe(cfg config, rep *report) error {
	online := cfg.workload == "serve-online"
	window := time.Duration(cfg.seconds * float64(time.Second))
	s, ss, err := runSession(cfg, online, window, setupLaunches, false)
	if err != nil {
		return err
	}
	st := summarize(s, ss, rep)
	requests := st.predicts + st.observes
	failed := st.predictFailed + st.obsFailed
	rep.ops(requests, failed)
	if st.firstError != nil {
		rep.note("first request error: %v", st.firstError)
	}
	if len(st.predictLat) == 0 {
		return errors.New("no predict succeeded")
	}
	late90 := quantile(st.late, 0.9)
	rep.check(late90 <= ms(lateLimit), "load generator fell behind: p90 dispatch lateness %.2f ms > %v", late90, lateLimit)

	rep.note("%s: %d tenants x %d features, %d classes; %d predicts, %d observes in %v; mix 70%% dense1, 20%% dense8, 10%% sparse1",
		cfg.workload, len(ss.names), serveFeatures, serveClasses, st.predicts, st.observes, window)
	rep.metric("setup_s", median(s.setup), "s", fmt.Sprintf("median of %d launches until every tenant answers (%.4f..%.4f)", len(s.setup), quantile(s.setup, 0), quantile(s.setup, 1)))
	p50 := median(st.predictLat)
	rep.metric("op_p50_ms", p50, "ms", fmt.Sprintf("predict_p50_ms: from due time, n=%d", len(st.predictLat)))
	rep.info("predict_service_p50_ms", median(st.service), "ms", "from send time: the server's share of op_p50_ms")
	tl, tlabel := tail(st.predictLat)
	rep.info("predict_tail_ms", tl, "ms", "predict_p99_ms: "+tlabel)
	cpu := ms(s.routerCPU+s.workerCPU) / float64(s.served)
	rep.metric("cpu_ms_per_op", cpu, "ms", fmt.Sprintf("serve_cpu_ms_per_req: router+worker CPU over %d requests", s.served))
	rep.metric("alloc_mb_per_op", s.allocMB/float64(requests), "MB", "worker heap allocation per request in the window")
	what := "distinct pool rows served"
	if online {
		what = "probe rows under the final served model"
	}
	rep.metric("error_pct", 100*float64(st.poolWrong)/float64(st.poolRows), "%",
		fmt.Sprintf("%d of %d %s differ from the generating class", st.poolWrong, st.poolRows, what))
	rep.info("served_error_pct", 100*float64(st.rowsMislabeled)/float64(st.rows), "%",
		fmt.Sprintf("all %d served rows", st.rows))
	rep.metric("ok_pct", 100*float64(requests-failed)/float64(requests), "%", "100 - failed_pct")
	rep.info("failed_pct", 100*float64(failed)/float64(requests), "%", "")
	rep.info("slo_miss_pct", 100*float64(st.sloMiss)/float64(st.predicts), "%", fmt.Sprintf("failed, refused or over %v from due time", sloLimit))
	if online {
		if len(st.observeLat) > 0 {
			rep.info("observe_p50_ms", median(st.observeLat), "ms", fmt.Sprintf("n=%d", len(st.observeLat)))
			ot, olabel := tail(st.observeLat)
			rep.info("observe_tail_ms", ot, "ms", "observe_p99_ms: "+olabel)
		}
		if len(st.refitVisible) > 0 {
			rep.info("refit_visible_ms", median(st.refitVisible), "ms", fmt.Sprintf("median of %d refits", len(st.refitVisible)))
		}
		rep.info("online.refits", float64(st.refits), "count", fmt.Sprintf("final model_seq %d", st.finalSeq))
	}
	rep.info("loadgen.offered_rps", float64(len(s.ops))/window.Seconds(), "1/s", "")
	rep.info("loadgen.achieved_rps", float64(requests-failed)/window.Seconds(), "1/s", "")
	rep.info("loadgen.lag_p50_ms", median(st.lag), "ms", "send time minus due time")
	rep.info("loadgen.lag_p90_ms", quantile(st.lag, 0.9), "ms", "")
	rep.info("loadgen.lag_p99_ms", quantile(st.lag, 0.99), "ms", "")
	rep.info("loadgen.dispatch_late_p90_ms", late90, "ms", "generator hand-off minus due time")
	rep.info("loadgen.dispatch_late_p99_ms", quantile(st.late, 0.99), "ms", "")
	rep.info("loadgen.backlog_end", float64(st.backlog), "count", "ops due in the window, sent after it")
	rep.info("proc.router_cpu_ms", ms(s.routerCPU), "ms", "")
	rep.info("proc.worker_cpu_ms", ms(s.workerCPU), "ms", "")
	rep.fingerprint["srdaserve_worker"] = fmt.Sprint(workerFlags(&servingSet{dir: "DIR"}, online))
	rep.fingerprint["srdaserve_router"] = fmt.Sprint(routerFlags("URL"))
	rep.fingerprint["offered"] = offeredLoad(online)
	return nil
}

func offeredLoad(online bool) string {
	if online {
		return fmt.Sprintf("predict %g/s observe %g/s refit-samples %d", onlinePredictRate, onlineObserveRate, refitSamples)
	}
	return fmt.Sprintf("predict %g/s", predictRate)
}

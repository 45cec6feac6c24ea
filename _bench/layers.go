package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"srda/internal/core"
	"srda/internal/online"
	"srda/internal/registry"
	"srda/internal/router"
	"srda/internal/serve"
)

// Iteration counts of the in-process replay: enough for stable medians
// while the whole replay stays within a few seconds.
const (
	replayPredicts = 400
	replayObserves = 1000
	replayLookups  = 200000
	replayPublish  = 200
	replayQueries  = 2000
	replayRefits   = 3
)

// timeEach calls f(i) n times and returns the median call time.
func timeEach(n int, f func(i int)) time.Duration {
	ts := make([]float64, n)
	for i := range ts {
		t := time.Now()
		f(i)
		ts[i] = float64(time.Since(t))
	}
	return time.Duration(median(ts))
}

// timeLoop returns the mean time of n calls of f, for calls too short
// to time one by one.
func timeLoop(n int, f func(i int)) time.Duration {
	t := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(t) / time.Duration(n)
}

// allocsPer returns heap allocations and bytes per call of f over n
// calls, counted process-wide so work f hands to other goroutines (the
// batcher, the pool) is included.
func allocsPer(n int, f func(i int)) (allocs, bytes float64) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// serveLayers replays serve-predict's request mix in process through the
// public constructors — registry.New, serve.New, router.New over a
// LocalBackend and an HTTPBackend — and times each layer's entry point,
// plus the streaming trainer at serve-online's shape.
func serveLayers(cfg config, rep *report) (layerTimes, error) {
	ss, err := buildServing(cfg, false, 0)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	reg := registry.New(registry.Options{})
	for t, name := range ss.names {
		if _, err := reg.Publish(name, ss.models[t]); err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(nil, serve.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	defer srv.Close(ctx)
	local, err := router.New([]router.Backend{&router.LocalBackend{ReplicaName: "w0", Server: srv}}, router.Options{})
	if err != nil {
		return nil, err
	}
	defer local.Close()
	worker := httptest.NewServer(srv.Handler())
	defer worker.Close()
	remote := &router.HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(worker.URL)}
	noop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte(`{"classes":[0],"model_seq":1}`))
	}))
	defer noop.Close()

	lt := layerTimes{}
	reqs := make([]*serve.PredictRequest, len(ss.pool))
	byShape := map[string][]int{}
	for i, p := range ss.pool {
		reqs[i] = new(serve.PredictRequest)
		if err := json.Unmarshal(p.body, reqs[i]); err != nil {
			return nil, err
		}
		byShape[p.shape] = append(byShape[p.shape], i)
	}
	for _, shape := range []string{"dense1", "dense8", "sparse1"} {
		idx := byShape[shape]
		d := timeEach(replayPredicts, func(i int) {
			var r serve.PredictRequest
			_ = json.Unmarshal(ss.pool[idx[i%len(idx)]].body, &r)
		})
		lt["serve.decode_us."+shape] = us(d)
	}
	lt["serve.encode_us"] = us(timeEach(replayPredicts, func(i int) {
		p := ss.pool[i%len(ss.pool)]
		_, _ = json.Marshal(serve.PredictResponse{Classes: p.want, Model: ss.names[p.tenant], ModelSeq: 1})
	}))

	var predictErr error
	predict := func(i int) {
		resp, err := srv.Predict(ctx, reqs[i%len(reqs)])
		if err == nil && !equalInts(resp.Classes, ss.pool[i%len(reqs)].want) {
			err = fmt.Errorf("Server.Predict of pool request %d disagrees with the local model", i%len(reqs))
		}
		if err != nil && predictErr == nil {
			predictErr = err
		}
	}
	serveD := timeEach(replayPredicts, predict)
	kernelD := timeEach(replayPredicts, func(i int) {
		p := ss.pool[i%len(ss.pool)]
		p.predict(ss.models[p.tenant])
	})
	routeD := timeEach(replayPredicts, func(i int) {
		if _, err := local.Predict(ctx, reqs[i%len(reqs)]); err != nil && predictErr == nil {
			predictErr = err
		}
	})
	forwardD := timeEach(replayPredicts, func(i int) {
		if _, err := remote.Predict(ctx, reqs[i%len(reqs)]); err != nil && predictErr == nil {
			predictErr = err
		}
	})
	client := &http.Client{}
	loopD := timeEach(replayPredicts, func(i int) {
		resp, err := client.Post(noop.URL, "application/json", bytes.NewReader(ss.pool[i%len(ss.pool)].body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	if !rep.check(predictErr == nil, "in-process replay: %v", predictErr) {
		return nil, predictErr
	}
	lt["serve.predict_us"] = us(serveD)
	lt["core.predict_batch_us"] = us(kernelD)
	lt["serve.queue_us"] = us(serveD - kernelD)
	lt["router.route_us"] = us(routeD - serveD)
	lt["router.http_forward_us"] = us(forwardD)
	lt["http.loopback_us"] = us(loopD)
	lt["serve.allocs_per_req"], lt["serve.bytes_per_req"] = allocsPer(replayPredicts, predict)
	lt["router.allocs_per_req"], lt["router.bytes_per_req"] = allocsPer(replayPredicts, func(i int) {
		_, _ = local.Predict(ctx, reqs[i%len(reqs)])
	})
	lt["core.predict_batch_allocs"], lt["core.predict_batch_bytes"] = allocsPer(replayPredicts, func(i int) {
		p := ss.pool[i%len(ss.pool)]
		p.predict(ss.models[p.tenant])
	})
	lt["obs.p99_query_us"] = us(timeLoop(replayQueries, func(int) { srv.LatencyP99() }))
	lt["registry.get_ns"] = float64(timeLoop(replayLookups, func(i int) { reg.Get(ss.names[i%len(ss.names)]) }))
	pubReg := registry.New(registry.Options{})
	lt["registry.publish_us"] = us(timeLoop(replayPublish, func(i int) {
		_, _ = pubReg.Publish("default", ss.models[i%len(ss.models)])
	}))

	// The streaming trainer at serve-online's shape.
	rng := rand.New(rand.NewSource(cfg.seed + 13))
	x, labels := ss.gens[0].dataset(rng, replayObserves)
	tr, err := online.NewStreamTrainer(online.Config{NumFeatures: serveFeatures, NumClasses: serveClasses, Alpha: 1})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	var obsErr error
	observe := func(i int) {
		if err := tr.Observe(x.RowView(i), labels[i]); err != nil && obsErr == nil {
			obsErr = err
		}
	}
	lt["online.observe_us"] = us(timeEach(replayObserves/2, observe))
	lt["online.observe_allocs"], lt["online.observe_bytes"] = allocsPer(replayObserves/2, func(i int) {
		observe(replayObserves/2 + i)
	})
	lt["online.refit_ms"] = ms(timeEach(replayRefits, func(int) {
		if _, _, err := tr.Refit(); err != nil && obsErr == nil {
			obsErr = err
		}
	}))
	stats, err := core.NewSuffStats(serveFeatures, serveClasses)
	if err != nil {
		return nil, err
	}
	lt["core.absorb_us"] = us(timeEach(replayObserves, func(i int) {
		if err := stats.Absorb(x.RowView(i), labels[i]); err != nil && obsErr == nil {
			obsErr = err
		}
	}))
	if !rep.check(obsErr == nil, "streaming trainer replay: %v", obsErr) {
		return nil, obsErr
	}
	rep.ops(5*replayPredicts+replayObserves+replayRefits, 0)
	rep.note("in-process replay: %d predicts of the serve-predict mix per entry point, %d observes and %d refits at %d features",
		replayPredicts, replayObserves, replayRefits, serveFeatures)
	return lt, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

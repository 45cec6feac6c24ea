package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"srda/internal/serve"
)

// An open-loop schedule: every operation has a due time drawn from a
// seeded Poisson process, and is sent then whether or not earlier ones
// have finished.  Latency is timed from the due time, so a stall also
// charges the requests queued behind it (no coordinated omission).

const (
	opPredict = iota
	opObserve
)

type op struct {
	due  time.Duration // offset from the window start
	kind int
	idx  int // predict: pool index; observe: position in the stream
}

// arrivals appends round(rate·window) arrivals of a Poisson process
// conditioned on that count: their times are sorted independent
// uniforms over the window.  Fixing the count keeps the offered load,
// and the number of refits an observe stream triggers, the same for
// every seed.
func arrivals(rng *rand.Rand, ops []op, rate float64, window time.Duration, kind int) []op {
	n := int(math.Round(rate * window.Seconds()))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64()
	}
	sort.Float64s(times)
	for i, t := range times {
		ops = append(ops, op{due: time.Duration(t * float64(window)), kind: kind, idx: i})
	}
	return ops
}

func schedule(seed int64, window time.Duration, predictRate, observeRate float64) []op {
	rng := rand.New(rand.NewSource(seed + 11))
	ops := arrivals(rng, nil, predictRate, window, opPredict)
	ops = arrivals(rng, ops, observeRate, window, opObserve)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// outcome is what happened to one scheduled operation.
type outcome struct {
	dispatched time.Duration // when the generator handed it to a connection
	sent       time.Duration // when a connection started sending it
	done       time.Duration
	err        error
	seq        uint64
	classes    []int
	embeddings [][]float64
}

// lane is one HTTP connection and the operations routed to it.
type lane struct {
	url    string
	client *http.Client
	ch     chan int // indices into the schedule
}

// newLane opens a lane; lanes given the same ch share its operations.
func newLane(url string, ch chan int) *lane {
	return &lane{
		url: url,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		ch: ch,
	}
}

func (l *lane) close() { l.client.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and decodes a predict or observe reply.
func (l *lane) do(body []byte, kind int, o *outcome) {
	resp, err := l.client.Post(l.url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.err = &serve.StatusError{Code: resp.StatusCode, Message: string(bytes.TrimSpace(data))}
		return
	}
	if kind == opObserve {
		var r serve.ObserveResponse
		o.err = json.Unmarshal(data, &r)
		return
	}
	var r serve.PredictResponse
	if o.err = json.Unmarshal(data, &r); o.err == nil {
		o.seq, o.classes, o.embeddings = r.ModelSeq, r.Classes, r.Embeddings
	}
}

// drainLimit bounds how long queued operations may still be sent after
// the window; ones left unsent count as failed.
const drainLimit = 20 * time.Second

// opChan returns a channel sized to the schedule, so the dispatcher
// never blocks on a busy connection.
func opChan(ops []op) chan int { return make(chan int, len(ops)) }

// runSchedule drives the schedule over the lanes: route picks the lane of an
// operation and body its payload.  It returns one outcome per op.
func runSchedule(ops []op, lanes []*lane, route func(op) *lane, body func(op) []byte) []outcome {
	out := make([]outcome, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for i := range l.ch {
				o := &out[i]
				o.sent = time.Since(start)
				if o.sent > ops[len(ops)-1].due+drainLimit {
					o.err = errDrain
					continue
				}
				l.do(body(ops[i]), ops[i].kind, o)
				o.done = time.Since(start)
			}
		}(l)
	}
	for i, o := range ops {
		if d := o.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].dispatched = time.Since(start)
		route(o).ch <- i
	}
	closed := map[chan int]bool{}
	for _, l := range lanes {
		if !closed[l.ch] {
			close(l.ch)
			closed[l.ch] = true
		}
	}
	wg.Wait()
	return out
}

type drainError struct{}

func (drainError) Error() string { return "not sent before the drain limit" }

var errDrain error = drainError{}

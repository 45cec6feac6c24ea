package serve

// This file is the work-conserving dispatcher.  A handler validates its
// request and puts the whole request on the queue in one send.  The
// inference workers read the queue directly: a free worker takes one
// request, adds whatever requests are already queued (without waiting,
// until the batch holds MaxBatch rows), and runs them at once.  Requests
// therefore share a batch only while every worker is busy, which is
// exactly when sharing amortizes dispatch; a request that finds a worker
// free never waits for company.

import (
	"context"
	"time"

	"srda/internal/classify"
	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/obs"
	"srda/internal/sparse"
)

// row is one validated sample: a dense vector, or a sparse row as
// column-sorted (cols, vals).
type row struct {
	dense []float64
	cols  []int
	vals  []float64
}

// fits reports whether a model with n features can answer the row.
func (r *row) fits(n int) bool {
	if r.dense != nil {
		return len(r.dense) == n
	}
	return len(r.cols) == 0 || r.cols[len(r.cols)-1] < n
}

// pending is one predict request in flight.  The worker that takes it
// off the queue owns it until done closes: it writes classes,
// embeddings, modelSeq and err, and the handler reads them only after
// done.
type pending struct {
	model      string // resolved registry name answering the request
	rows       []row
	classes    []int
	embeddings [][]float64 // nil unless the request asked for embeddings
	modelSeq   uint64
	err        error
	done       chan struct{}
	// span is the request's root span; every kernel batch its rows run in
	// opens a "batch" child on it.  Nil when tracing is off.
	span *obs.ReqSpan
}

func (p *pending) fits(n int) bool {
	for i := range p.rows {
		if !p.rows[i].fits(n) {
			return false
		}
	}
	return true
}

// rowRef names row i of request req in the slice being dispatched.
type rowRef struct{ req, i int }

// worker is one inference worker's reusable state.  The dense gather
// matrix x and the embedding matrix emb grow to the largest kernel batch
// seen (at most MaxBatch rows of the widest model) and are reused across
// batches.
type worker struct {
	batch  []*pending // requests taken off the queue for one dispatch
	refs   []rowRef   // rows of the kernel batch being gathered
	spans  []*obs.ReqSpan
	x, emb mat.Dense
}

// enqueue puts a validated request on the queue in one send.  It never
// blocks: a request whose rows would take the queue past QueueDepth
// samples is rejected whole with ErrQueueFull, and none of it runs.
func (s *Server) enqueue(p *pending) error {
	n := int64(len(p.rows))
	for {
		q := s.queued.Load()
		if q+n > int64(s.opts.QueueDepth) {
			s.metrics.queueRejects.Add(n)
			s.logger.Sample("queue_full", time.Second).Warn("prediction queue full",
				"rejected", n, "queue_depth", s.opts.QueueDepth)
			s.opts.Flight.NoteQueueFull(p.span.TraceID())
			return ErrQueueFull
		}
		if s.queued.CompareAndSwap(q, q+n) {
			break
		}
	}
	s.queue <- p // the reservation leaves a free slot (see Server.queue)
	return nil
}

// run is one inference worker: it takes the next request, coalesces the
// requests already queued behind it, and answers them.  After Close it
// keeps going until the queue is empty, so every request queued before
// Close is answered.
func (s *Server) run() {
	defer s.wg.Done()
	w := new(worker)
	for {
		var p *pending
		select {
		case p = <-s.queue:
		case <-s.stop:
			select {
			case p = <-s.queue:
			default:
				return
			}
		}
		w.batch = s.coalesce(append(w.batch[:0], p))
		s.runBatch(w, w.batch)
		for _, p := range w.batch {
			close(p.done)
		}
		clear(w.batch)
	}
}

// coalesce takes batch's request off the queue's books and appends the
// requests already queued, without waiting, until the batch holds at
// least MaxBatch rows.
func (s *Server) coalesce(batch []*pending) []*pending {
	rows := len(batch[0].rows)
	s.queued.Add(-int64(rows))
	for rows < s.opts.MaxBatch {
		select {
		case p := <-s.queue:
			s.queued.Add(-int64(len(p.rows)))
			batch = append(batch, p)
			rows += len(p.rows)
		default:
			return batch
		}
	}
	return batch
}

// runBatch splits a coalesced batch by registry model (requests for
// different tenants share the dispatcher but never a GEMM) and runs each
// model's requests in first-appearance order.
func (s *Server) runBatch(w *worker, batch []*pending) {
	// Single-tenant batches — the overwhelmingly common case — skip the
	// grouping allocation entirely.
	uniform := true
	for _, p := range batch[1:] {
		if p.model != batch[0].model {
			uniform = false
			break
		}
	}
	if uniform {
		s.runModelBatch(w, batch[0].model, batch)
		return
	}
	var order []string
	groups := make(map[string][]*pending)
	for _, p := range batch {
		if _, ok := groups[p.model]; !ok {
			order = append(order, p.model)
		}
		groups[p.model] = append(groups[p.model], p)
	}
	for _, name := range order {
		s.runModelBatch(w, name, groups[name])
	}
}

// runModelBatch answers one model's requests on the snapshot loaded once
// for all of them (publishes and rollbacks therefore never tear a
// request), in kernel batches of at most MaxBatch rows.
func (s *Server) runModelBatch(w *worker, name string, reqs []*pending) {
	snap, ok := s.reg.Get(name)
	if !ok {
		// Evicted or deleted between enqueue and dispatch.
		err := &UnknownModelError{Name: name}
		for _, p := range reqs {
			p.err = err
		}
		return
	}
	n := snap.Model.W.Rows
	refs := w.refs[:0]
	for k, p := range reqs {
		if !p.fits(n) {
			// A reload changed the feature count since enqueue-time
			// validation; fail the request instead of panicking.
			p.err = ErrModelShape
			continue
		}
		p.modelSeq = snap.Version
		for i := range p.rows {
			refs = append(refs, rowRef{k, i})
			if len(refs) == s.opts.MaxBatch {
				s.runKernel(w, snap.Model, reqs, refs)
				refs = refs[:0]
			}
		}
	}
	if len(refs) > 0 {
		s.runKernel(w, snap.Model, reqs, refs)
	}
	w.refs = refs
}

// runKernel gathers refs into the worker's scratch, runs the batched
// projection and nearest-centroid assignment, and writes each row's
// result back to its request.
func (s *Server) runKernel(w *worker, m *core.Model, reqs []*pending, refs []rowRef) {
	s.metrics.batches.Inc()
	s.metrics.samples.Add(int64(len(refs)))
	s.metrics.batchSize.Observe(float64(len(refs)))

	// Fan-in tracing: one "batch" child per distinct request in the batch
	// (a request's rows are contiguous in refs), so each request's trace
	// shows the shared inference interval.  The kernel spans below
	// (core.gemm / core.project_csr / pool.do / classify) attach to the
	// first traced request's batch span — one execution, one set of
	// kernel spans, owned by one trace.
	w.spans = w.spans[:0]
	var owner *obs.ReqSpan
	for r, ref := range refs {
		if r > 0 && ref.req == refs[r-1].req {
			continue
		}
		sp := reqs[ref.req].span.StartChild("batch")
		w.spans = append(w.spans, sp)
		if owner == nil {
			owner = sp
		}
	}
	ctx := obs.ContextWithSpan(context.Background(), owner)

	allSparse := true
	for _, ref := range refs {
		if reqs[ref.req].rows[ref.i].dense != nil {
			allSparse = false
			break
		}
	}
	n := m.W.Rows
	emb := reuse(&w.emb, len(refs), m.Dim())
	if allSparse {
		b := sparse.NewBuilder(len(refs), n)
		for r, ref := range refs {
			row := &reqs[ref.req].rows[ref.i]
			for t, j := range row.cols {
				b.Add(r, j, row.vals[t])
			}
		}
		emb = m.ProjectBatchCSRCtx(ctx, b.Build(), emb)
	} else {
		x := reuse(&w.x, len(refs), n)
		for r, ref := range refs {
			row, dst := &reqs[ref.req].rows[ref.i], x.RowView(r)
			if row.dense != nil {
				copy(dst, row.dense)
				continue
			}
			clear(dst)
			for t, j := range row.cols {
				dst[j] = row.vals[t]
			}
		}
		emb = m.ProjectBatchCtx(ctx, x, emb)
	}
	nc := classify.NearestCentroid{Centroids: m.Centroids}
	_, csp := obs.StartSpan(ctx, "classify")
	classes := nc.PredictBatch(emb)
	csp.End()
	for r, ref := range refs {
		p := reqs[ref.req]
		p.classes[ref.i] = classes[r]
		if p.embeddings != nil {
			p.embeddings[ref.i] = append([]float64(nil), emb.RowView(r)...)
		}
	}
	for _, sp := range w.spans {
		sp.End()
	}
	clear(w.spans)
}

// reuse reshapes d to r×c over its own storage, growing it only when the
// storage is short.
func reuse(d *mat.Dense, r, c int) *mat.Dense {
	if cap(d.Data) < r*c {
		d.Data = make([]float64, r*c)
	}
	*d = mat.Dense{Rows: r, Cols: c, Stride: c, Data: d.Data[:r*c]}
	return d
}

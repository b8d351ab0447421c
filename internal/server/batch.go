package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"tsperr/internal/core"
)

// The batch layer runs a whole suite of estimation scenarios through the
// existing flight table. Every entry goes through the same join path as a
// single request, which is what gives batches request-hash dedup (identical
// entries — and entries identical to anything in flight or cached — share
// one computation), bounded-queue backpressure, and drain semantics for
// free. What the layer adds is pacing: entries are fed to the queue as
// capacity frees up instead of 503ing the tail of a 30-entry suite, and
// per-entry status plus incremental results are addressable at
// GET /v1/batches/{id}.

// BatchRequest is the body of POST /v1/batch: a suite of estimate requests
// sharing the warm framework. Per-entry knobs (scenarios, retries,
// mc_trials, ...) are exactly the single-request ones; Async is meaningless
// inside a batch and rejected.
type BatchRequest struct {
	Scenarios []Request `json:"scenarios"`
}

// batchPollInterval is how often the pacer re-offers an entry rejected by a
// full compute queue. Long enough to stay off the mutex, short enough that a
// freed worker never idles noticeably.
const batchPollInterval = 20 * time.Millisecond

// batchEntry is one suite entry's lifecycle; its consumer (see handleBatch)
// joins it to a flight. Fields are guarded by the server's mu except key and
// benchmark, which are immutable after creation.
type batchEntry struct {
	benchmark string
	key       string
	// status is "pending" (not yet admitted), "running", "done", "failed",
	// or "rejected" (server draining before admission); guarded by mu.
	status string
	// dedup marks an entry that shared another computation (within the batch
	// or with outside traffic); cached marks an LRU hit; guarded by mu.
	dedup  bool
	cached bool         // guarded by mu
	rep    *core.Report // guarded by mu
	errMsg string       // guarded by mu
}

// batch is one stored suite run, addressable via GET /v1/batches/{id}.
type batch struct {
	id      string
	created time.Time
	entries []*batchEntry
	// remaining counts entries not yet in a terminal state; the batch is
	// finished when it reaches zero; guarded by mu.
	remaining int
}

// errDraining finishes the entries a draining server never admitted.
var errDraining = errors.New("server draining")

// parseBatchRequest decodes and validates a whole suite upfront, so a batch
// is accepted or rejected atomically — no half-admitted suites.
func parseBatchRequest(r *http.Request, limits Limits, maxBatch int) ([]*Request, error) {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var br BatchRequest
	if err := dec.Decode(&br); err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	if len(br.Scenarios) == 0 {
		return nil, fmt.Errorf("batch has no scenarios")
	}
	if len(br.Scenarios) > maxBatch {
		return nil, fmt.Errorf("batch of %d scenarios exceeds limit %d", len(br.Scenarios), maxBatch)
	}
	reqs := make([]*Request, len(br.Scenarios))
	for i := range br.Scenarios {
		req := br.Scenarios[i]
		if req.Async {
			return nil, fmt.Errorf("scenario %d: async is not valid inside a batch", i)
		}
		req.normalize(limits)
		if err := req.validate(limits); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		reqs[i] = &req
	}
	return reqs, nil
}

type batchAcceptedResponse struct {
	BatchID   string `json:"batch_id"`
	Scenarios int    `json:"scenarios"`
	Poll      string `json:"poll"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batchRequests.Add(1)
	if !s.ready() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "model warming up, retry shortly"})
		return
	}
	reqs, err := parseBatchRequest(r, s.cfg.Limits, s.cfg.MaxBatch)
	if err != nil {
		s.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	b := &batch{
		id:        newID("batch"),
		created:   time.Now(),
		entries:   make([]*batchEntry, len(reqs)),
		remaining: len(reqs),
	}
	// Each entry's consumer records its admission, then its terminal state,
	// both under mu (see consumer); the last one to land closes out the
	// batch.
	cons := make([]*consumer, len(reqs))
	for i, req := range reqs {
		e := &batchEntry{benchmark: req.Benchmark, key: req.Key(s.cfg.Fingerprint), status: "pending"}
		b.entries[i] = e
		cons[i] = &consumer{
			joined: func(o joinOutcome) {
				e.status, e.dedup, e.cached = "running", o != joinCreated, o == joinCacheHit
			},
			done: func(rep *core.Report, err error) {
				switch {
				case errors.Is(err, errDraining):
					e.status, e.errMsg = "rejected", err.Error()
				case err != nil:
					e.status, e.errMsg = "failed", err.Error()
				default:
					e.status, e.rep = "done", rep
				}
				if b.remaining--; b.remaining == 0 {
					s.met.batchesFinished.Add(1)
					s.met.batchLatency.observe(time.Since(b.created).Seconds())
				}
			},
		}
	}
	s.mu.Lock()
	stored := !s.closed && s.batches.add(b.id, b, func(old *batch) bool { return old.remaining == 0 })
	s.mu.Unlock()
	if !stored {
		s.met.queueRejects.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "batch store full, retry later"})
		return
	}
	s.met.batchesStarted.Add(1)
	// The pacer owns the suite from here; the response only acknowledges
	// admission. It runs under the server lifecycle, not the HTTP request —
	// a batch is not cancelled by its submitter disconnecting.
	go s.runBatch(b, reqs, cons)
	writeJSON(w, http.StatusAccepted, batchAcceptedResponse{
		BatchID:   b.id,
		Scenarios: len(reqs),
		Poll:      "/v1/batches/" + b.id,
	})
}

// runBatch is the pacer: it joins the suite's entries to the flight table
// in order as detached consumers, retrying entries the bounded queue
// rejects until capacity frees up (that is the backpressure inheritance —
// the batch waits, it does not 503), and marking everything after the drain
// point rejected once the server starts closing. An admitted entry pins its
// computation and is finished when the flight retires, so a long head entry
// never blocks dedup joins or completions further down the suite.
func (s *Server) runBatch(b *batch, reqs []*Request, cons []*consumer) {
	for i, req := range reqs {
		for {
			if _, _, outcome := s.join(req, b.entries[i].key, cons[i]); outcome != joinRejected {
				break
			}
			if s.draining() {
				s.rejectEntries(cons[i:])
				return
			}
			// Queue full: wait for capacity, then re-offer this entry.
			select {
			case <-time.After(batchPollInterval):
			case <-s.lifeCtx.Done():
				s.rejectEntries(cons[i:])
				return
			}
		}
	}
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// rejectEntries finishes the consumers of entries the server began draining
// before they were admitted: those entries end "rejected".
func (s *Server) rejectEntries(cons []*consumer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cons {
		c.done(nil, errDraining)
	}
}

// batchEntryResponse is the wire form of one entry; Report appears as soon
// as that entry completes, which is what makes GET /v1/batches/{id}
// incremental.
type batchEntryResponse struct {
	Index     int          `json:"index"`
	Benchmark string       `json:"benchmark"`
	Key       string       `json:"key"`
	Status    string       `json:"status"`
	Dedup     bool         `json:"dedup,omitempty"`
	Cached    bool         `json:"cached,omitempty"`
	Report    *core.Report `json:"report,omitempty"`
	Error     string       `json:"error,omitempty"`
}

type batchResponse struct {
	BatchID   string               `json:"batch_id"`
	Status    string               `json:"status"`
	Scenarios []batchEntryResponse `json:"scenarios"`
	Pending   int                  `json:"pending"`
	Done      int                  `json:"done"`
	Failed    int                  `json:"failed"`
}

func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	s.met.batchGetRequests.Add(1)
	id := r.PathValue("id")
	s.mu.Lock()
	b, ok := s.batches.items[id]
	var resp batchResponse
	if ok {
		resp = batchResponse{BatchID: b.id, Status: "done", Scenarios: make([]batchEntryResponse, len(b.entries))}
		if b.remaining > 0 {
			resp.Status = "running"
		}
		for i, e := range b.entries {
			resp.Scenarios[i] = batchEntryResponse{
				Index: i, Benchmark: e.benchmark, Key: e.key, Status: e.status,
				Dedup: e.dedup, Cached: e.cached, Report: e.rep, Error: e.errMsg,
			}
			switch e.status {
			case "pending", "running":
				resp.Pending++
			case "done":
				resp.Done++
			default:
				resp.Failed++
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown batch %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

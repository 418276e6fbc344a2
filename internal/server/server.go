// Package server exposes fill synthesis as an HTTP service: jobs are
// submitted to the bounded queue of internal/jobqueue, run the library's
// session/solve pipeline under a cancellable context, and report progress,
// results and Prometheus metrics.
//
// API:
//
//	POST   /v1/jobs       submit a job (DEF or named testcase + method, or a
//	                      sharded region job via "region"); 202 with the job
//	                      id, 200 when an idempotency key dedupes onto an
//	                      existing job, 429 when the queue is full or the
//	                      tenant (X-Tenant header) is over its rate or queue
//	                      share (with Retry-After), 503 while draining
//	GET    /v1/jobs       list jobs; ?limit= and ?after= page through the
//	                      submission-ordered listing
//	GET    /v1/jobs/{id}  job state, running phase, and the report when done
//	DELETE /v1/jobs/{id}  cancel a pending or running job (409 if finished)
//	GET    /healthz       200 "ok", 503 while draining (liveness)
//	GET    /readyz        200 "ok" only while accepting new work — flipped
//	                      off by SetReady before a drain so coordinators and
//	                      load balancers stop routing here (readiness)
//	GET    /metrics       Prometheus text exposition
//
// With Config.DataDir set, keyed submissions are written to an append-only
// JSONL WAL and unfinished ones are resubmitted on startup, so a restart
// does not lose accepted work (the idempotency keys make the replay safe).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pilfill"
	"pilfill/internal/jobqueue"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Queue configures the underlying job queue (capacity, workers, default
	// per-job timeout). The OnFinish hook is owned by the server's metrics
	// and must be left nil.
	Queue jobqueue.Config
	// MaxBodyBytes bounds the request body (inline DEF can be large);
	// default 64 MiB.
	MaxBodyBytes int64
	// TaskFactory translates a validated SubmitRequest into the task the
	// queue runs. Nil uses the real fill-synthesis pipeline; tests substitute
	// controllable tasks to exercise queue behavior deterministically.
	TaskFactory func(req *SubmitRequest) (jobqueue.Task, error)
	// Logger receives structured request and job-lifecycle logs (one Info
	// line per request with its id, method, path, status and duration; job
	// state transitions via the queue). Nil disables logging. When
	// Queue.Logger is nil it inherits this logger.
	Logger *slog.Logger
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ —
	// protect the port accordingly when enabling it.
	Pprof bool
	// Tenant enables per-tenant admission control on submissions, keyed by
	// the X-Tenant header (missing header = jobqueue.DefaultTenant). Nil
	// disables admission.
	Tenant *jobqueue.TenantConfig
	// DataDir, when non-empty, enables the durable-jobs WAL at
	// DataDir/jobs.wal: keyed submissions are logged on accept and marked on
	// completion, and unfinished ones are resubmitted when the server starts.
	DataDir string
}

// Server is the pilfilld HTTP handler. Create with New; it owns its queue.
type Server struct {
	q       *jobqueue.Queue
	mux     *http.ServeMux
	metrics *metrics
	factory func(req *SubmitRequest) (jobqueue.Task, error)
	logger  *slog.Logger
	adm     *jobqueue.TenantAdmission
	wal     *jobqueue.WAL
	ready   atomic.Bool  // readiness; flipped off by SetReady before a drain
	nextReq atomic.Int64 // request-id counter

	mu      sync.Mutex
	methods map[string]string // job id -> method label, for JobView
	tenants map[string]string // job id -> admitted tenant, released on finish
}

// New builds the server, starts its queue workers, and — with a DataDir —
// replays unfinished keyed jobs from the WAL. The returned error is always a
// WAL problem (open, replay); a server without durability cannot fail.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	s := &Server{
		metrics: newMetrics(),
		factory: cfg.TaskFactory,
		logger:  cfg.Logger,
		methods: make(map[string]string),
		tenants: make(map[string]string),
	}
	s.ready.Store(true)
	if s.factory == nil {
		queueWorkers := cfg.Queue.Workers
		s.factory = func(req *SubmitRequest) (jobqueue.Task, error) {
			return defaultTask(req, queueWorkers, s.metrics.progressTiles)
		}
	}
	if cfg.Tenant != nil {
		s.adm = jobqueue.NewTenantAdmission(*cfg.Tenant)
		s.metrics.registerTenants(s.adm)
	}
	qcfg := cfg.Queue
	qcfg.OnFinish = s.jobFinished
	if qcfg.Logger == nil {
		qcfg.Logger = cfg.Logger
	}
	s.q = jobqueue.New(qcfg)

	if cfg.DataDir != "" {
		wal, recs, err := jobqueue.OpenWAL(filepath.Join(cfg.DataDir, "jobs.wal"))
		if err != nil {
			s.q.Shutdown(context.Background())
			return nil, err
		}
		s.wal = wal
		if err := s.replay(recs); err != nil {
			s.q.Shutdown(context.Background())
			return nil, err
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.maxBody(cfg.MaxBodyBytes, s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// jobFinished is the queue's OnFinish hook: metrics, tenant release, and the
// WAL done record. Cancelled jobs are deliberately not marked done — a
// drain-time cancellation must be replayed after restart, or accepted work
// would be lost.
func (s *Server) jobFinished(snap jobqueue.Snapshot) {
	s.metrics.jobFinished(snap)
	s.mu.Lock()
	tenant, admitted := s.tenants[snap.ID]
	delete(s.tenants, snap.ID)
	s.mu.Unlock()
	if admitted {
		s.adm.Release(tenant)
	}
	if snap.Key != "" && snap.State != jobqueue.Cancelled {
		if err := s.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALDone, Key: snap.Key}); err != nil && s.logger != nil {
			s.logger.Error("wal done append failed", "key", snap.Key, "err", err)
		}
	}
}

// replay resubmits every accepted-but-unfinished keyed job from a prior
// incarnation. Requests that no longer validate are marked done (replaying
// them forever would wedge every startup); everything else re-enters the
// queue under its original key.
func (s *Server) replay(recs []jobqueue.WALRecord) error {
	for _, rec := range jobqueue.WALUnfinished(recs) {
		var req SubmitRequest
		if err := json.Unmarshal(rec.Payload, &req); err != nil {
			return fmt.Errorf("wal replay %q: %w", rec.Key, err)
		}
		task, err := s.factory(&req)
		if err != nil {
			if s.logger != nil {
				s.logger.Warn("wal replay: job no longer valid, marking done", "key", rec.Key, "err", err)
			}
			if err := s.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALDone, Key: rec.Key}); err != nil {
				return err
			}
			continue
		}
		snap, _, err := s.q.SubmitKeyed(task, jobqueue.SubmitOptions{
			Key:     rec.Key,
			Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("wal replay %q: %w", rec.Key, err)
		}
		s.mu.Lock()
		s.methods[snap.ID] = req.Method
		s.mu.Unlock()
		if s.logger != nil {
			s.logger.Info("wal replay: resubmitted job", "key", rec.Key, "id", snap.ID)
		}
	}
	return nil
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// ServeHTTP implements http.Handler. Every request is assigned an id
// (honoring an incoming X-Request-ID — the coordinator's trace-propagation
// channel) that is echoed in the response header, written back onto the
// request headers so handlers read one canonical value, and carried through
// the request log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = fmt.Sprintf("req-%08d", s.nextReq.Add(1))
		r.Header.Set("X-Request-ID", reqID)
	}
	w.Header().Set("X-Request-ID", reqID)
	if s.logger == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.logger.Info("request",
		"id", reqID, "method", r.Method, "path", r.URL.Path,
		"status", sw.status, "dur", time.Since(start))
}

// Queue exposes the underlying queue (stats, direct submission in tests).
func (s *Server) Queue() *jobqueue.Queue { return s.q }

// Shutdown drains the queue under ctx's deadline: new submissions are
// rejected with 503, running and queued jobs finish (or are cancelled when
// ctx expires). The HTTP listener itself is the caller's to close — keep it
// serving during the drain so clients can poll final job states.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.q.Shutdown(ctx)
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) maxBody(limit int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) methodLabel(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.methods[id]
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	task, err := s.factory(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if res := s.adm.Admit(tenant); !res.OK {
		w.Header().Set("Retry-After", jobqueue.RetryAfterSeconds(res.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "tenant over %s limit, retry later", res.Reason)
		return
	}
	snap, deduped, err := s.q.SubmitKeyed(task, jobqueue.SubmitOptions{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Key:     req.Key,
		Trace:   r.Header.Get("X-Request-ID"),
	})
	if err != nil || deduped {
		// No new job entered the queue: the admitted slot is unused.
		s.adm.Release(tenant)
	}
	switch {
	case errors.Is(err, jobqueue.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	case errors.Is(err, jobqueue.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if deduped {
		writeJSON(w, http.StatusOK, viewOf(snap, s.methodLabel(snap.ID)))
		return
	}
	s.mu.Lock()
	s.methods[snap.ID] = req.Method
	if s.adm != nil {
		s.tenants[snap.ID] = tenant
	}
	s.mu.Unlock()
	if req.Key != "" && s.wal != nil {
		payload, merr := json.Marshal(&req)
		if merr == nil {
			merr = s.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALAccept, Key: req.Key, Payload: payload})
		}
		if merr != nil && s.logger != nil {
			s.logger.Error("wal accept append failed", "key", req.Key, "err", merr)
		}
	}
	writeJSON(w, http.StatusAccepted, viewOf(snap, req.Method))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	snaps, next := s.q.ListPage(r.URL.Query().Get("after"), limit)
	resp := ListResponse{Jobs: make([]JobView, 0, len(snaps)), NextAfter: next}
	for _, snap := range snaps {
		v := viewOf(snap, s.methodLabel(snap.ID))
		v.Report = nil // keep the listing light; fetch one job for the report
		resp.Jobs = append(resp.Jobs, v)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.q.Get(id)
	if errors.Is(err, jobqueue.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(snap, s.methodLabel(id)))
}

// handleProgress serves just the live progress snapshot — the polling-
// friendly subset of the job view the cluster coordinator forwards into its
// chip-level aggregation. An empty object means the job has not published
// progress yet (still pending, or a task without progress instrumentation).
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.q.Get(id)
	if errors.Is(err, jobqueue.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	pp := progressOf(snap)
	if pp == nil {
		pp = &ProgressPayload{Phase: snap.Phase}
	}
	writeJSON(w, http.StatusOK, struct {
		ID    string `json:"id"`
		State string `json:"state"`
		*ProgressPayload
	}{ID: snap.ID, State: snap.State.String(), ProgressPayload: pp})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.q.Cancel(id)
	switch {
	case errors.Is(err, jobqueue.ErrNotFound):
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	case errors.Is(err, jobqueue.ErrFinished):
		writeError(w, http.StatusConflict, "job %q already %s", id, snap.State)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(snap, s.methodLabel(id)))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.q.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SetReady flips the /readyz readiness signal. pilfilld calls SetReady(false)
// at SIGTERM, before the queue drain starts, so routers see "not ready"
// while in-flight jobs are still finishing cleanly.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// handleReady is the routing signal: distinct from /healthz (liveness, which
// stays 200 until the process is truly unable to serve) so a draining worker
// is taken out of rotation without being restarted.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() || s.q.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.write(w, s.q.Stats()) // write errors mean a gone client
}

// EffectiveWorkers resolves a job's per-run tile-solver worker count so that
// concurrent jobs never oversubscribe the CPU: each of the queue's workers
// gets an equal share of GOMAXPROCS (at least 1), an unset request defaults
// to that share, and an explicit request is clamped to it. With one queue
// worker this is plain "default to all cores".
func EffectiveWorkers(requested, queueWorkers int) int {
	if queueWorkers < 1 {
		queueWorkers = 1
	}
	share := runtime.GOMAXPROCS(0) / queueWorkers
	if share < 1 {
		share = 1
	}
	if requested <= 0 || requested > share {
		return share
	}
	return requested
}

// DefaultTask is DefaultTaskFactory for a single-worker queue — kept for
// callers that construct tasks directly.
func DefaultTask(req *SubmitRequest) (jobqueue.Task, error) {
	return defaultTask(req, 1, nil)
}

// DefaultTaskFactory returns the production task factory for a queue running
// queueWorkers jobs concurrently. Each job's tile-solver worker count is
// resolved with EffectiveWorkers so the daemon's total parallelism stays
// within GOMAXPROCS; the resolved value appears as "workers" in the job
// report. (A server built by New wires its own factory so the live tile
// counter feeds pilfilld_progress_tiles_total; this exported form counts
// nothing.)
func DefaultTaskFactory(queueWorkers int) func(req *SubmitRequest) (jobqueue.Task, error) {
	return func(req *SubmitRequest) (jobqueue.Task, error) {
		return defaultTask(req, queueWorkers, nil)
	}
}

// defaultTask validates the request up-front (so bad submissions fail with
// 400 instead of a Failed job) and returns a task that loads the layout,
// prepares a session, and runs the method under the job's context.
// Cancellation between phases is checked explicitly; during the solve it
// propagates through Session.RunContext to the tile loops and ILP node
// loops.
func defaultTask(req *SubmitRequest, queueWorkers int, progressTiles *obs.Counter) (jobqueue.Task, error) {
	if req.Region != nil {
		return regionTask(req, queueWorkers, progressTiles)
	}
	m, ok := ParseMethod(req.Method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
	if (req.Testcase == "") == (req.DEF == "") {
		return nil, errors.New("exactly one of testcase and def must be set")
	}
	if req.Testcase != "" {
		switch strings.ToUpper(req.Testcase) {
		case "T1", "T2":
		default:
			return nil, fmt.Errorf("unknown testcase %q (want T1 or T2)", req.Testcase)
		}
	}
	opts, err := req.Options.SessionOptions()
	if err != nil {
		return nil, err
	}
	opts.Workers = EffectiveWorkers(opts.Workers, queueWorkers)
	collectTrace := req.Options.CollectTrace
	reqCopy := *req // detach from the handler's request lifetime

	return func(ctx context.Context, setPhase func(string)) (any, error) {
		tracker := newProgressTracker(func(v any) { jobqueue.PublishProgress(ctx, v) }, progressTiles)
		setPhase = tracker.wrapSetPhase(setPhase)
		setPhase("load")
		var l *layout.Layout
		var err error
		switch {
		case reqCopy.Testcase != "":
			switch strings.ToUpper(reqCopy.Testcase) {
			case "T1":
				l, err = pilfill.GenerateT1()
			case "T2":
				l, err = pilfill.GenerateT2()
			}
		case reqCopy.LEF != "":
			l, err = pilfill.LoadLEFDEF(strings.NewReader(reqCopy.LEF), strings.NewReader(reqCopy.DEF))
		default:
			l, err = pilfill.LoadDEF(strings.NewReader(reqCopy.DEF))
		}
		if err != nil {
			return nil, fmt.Errorf("load layout: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		setPhase("prepare")
		var tr *obs.Tracer
		if collectTrace {
			tr = obs.NewTracer(0)
		}
		runOpts := opts
		runOpts.Trace, runOpts.OnTile = tr, tracker.onTile
		sess, err := pilfill.NewSession(l, runOpts)
		if err != nil {
			return nil, fmt.Errorf("prepare session: %w", err)
		}
		tracker.setTotal(len(sess.Instances))
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		setPhase("solve")
		rep, err := sess.RunContext(ctx, m)
		if err != nil {
			return nil, err
		}
		setPhase("report")
		payload := BuildReport(sess, rep)
		payload.Trace = tr.Dump("pilfilld")
		return payload, nil
	}, nil
}

// jobs.go is the durable job service both daemons are built on: pilfilld's
// Server (/v1/jobs) and pilfill-coord's cluster.Service (/v1/chips). Jobs
// owns the queue, the keyed-job WAL, the submit/list/get/cancel handlers,
// /healthz, /readyz, readiness, request IDs, the request log and the
// listen/drain sequence. A daemon supplies how a request becomes a task
// (Prepare), how a snapshot becomes its wire view (View, List) and its own
// routes (HandleFunc). The status policy is the same on both daemons:
//
//	202  accepted (the job view)
//	200  key dedupe: the existing job's view
//	400  bad body, unknown field, or a request Prepare rejects
//	429  queue full (Retry-After: 1), or refused by Admit (its Retry-After)
//	503  submit while draining
//	404  unknown id on GET or DELETE
//	409  DELETE of a finished job
//
// With a DataDir, keyed submissions are logged to a JSONL WAL and unfinished
// ones resubmitted on startup (the keys make replay safe). A cancelled job
// is never marked done: a drain-time cancellation is replayed after restart.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pilfill/internal/jobqueue"
)

// Submission is one validated job a daemon hands to Jobs.
type Submission struct {
	Task    jobqueue.Task
	Key     string        // idempotency key; keyed jobs are WAL-logged
	Timeout time.Duration // 0 uses the queue's default
	Trace   string        // trace ID bound to the job
	Meta    any           // daemon per-job state, passed to View
}

// JobsConfig configures a Jobs service over request type R and wire view V.
type JobsConfig[R, V any] struct {
	Path             string // collection route; items live at Path/{id}
	Noun             string // a job's name in error messages
	WALFile, DataDir string // WAL at DataDir/WALFile; no DataDir, no WAL
	// Queue's OnFinish belongs to Jobs; a nil Queue.Logger inherits Logger.
	Queue        jobqueue.Config
	MaxBodyBytes int64        // submit body cap; default 64 MiB
	Logger       *slog.Logger // request and WAL logs; nil disables
	// MintID mints the X-Request-ID of a request without one; nil mints
	// "req-%08d".
	MintID func() string
	// Prepare validates a decoded request into a submission; an error is a
	// 400. trace is the request's X-Request-ID, empty on WAL replay.
	Prepare func(req *R, trace string) (Submission, error)
	// Admit, when set, runs on HTTP submissions after Prepare. A refusal is
	// a 429 with Retry-After; otherwise release gives the slot back once the
	// job finishes, or at once when no new job entered the queue.
	Admit func(r *http.Request) (release func(), retryAfter time.Duration, err error)
	// View renders a job; List wraps a page of views and the next cursor.
	View     func(snap jobqueue.Snapshot, meta any) V
	List     func(views []V, next string) any
	Finished func(snap jobqueue.Snapshot) // optional terminal-state hook
}

// Jobs is the HTTP job service; create with NewJobs.
type Jobs[R, V any] struct {
	cfg   JobsConfig[R, V]
	q     *jobqueue.Queue
	wal   *jobqueue.WAL
	mux   *http.ServeMux
	ready atomic.Bool

	mu      sync.Mutex
	meta    map[string]any    // job id -> Submission.Meta
	release map[string]func() // job id -> Admit release, run on finish
	unready chan struct{}     // closed while not ready
}

// NewJobs starts the queue, replays the WAL and mounts the shared routes.
// The returned error is always a WAL problem.
func NewJobs[R, V any](cfg JobsConfig[R, V]) (*Jobs[R, V], error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.MintID == nil {
		var n atomic.Int64
		cfg.MintID = func() string { return fmt.Sprintf("req-%08d", n.Add(1)) }
	}
	j := &Jobs[R, V]{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		meta:    make(map[string]any),
		release: make(map[string]func()),
		unready: make(chan struct{}),
	}
	j.ready.Store(true)
	qcfg := cfg.Queue
	qcfg.OnFinish = j.finished
	if qcfg.Logger == nil {
		qcfg.Logger = cfg.Logger
	}
	j.q = jobqueue.New(qcfg)
	if cfg.DataDir != "" {
		wal, recs, err := jobqueue.OpenWAL(filepath.Join(cfg.DataDir, cfg.WALFile))
		if err == nil {
			j.wal = wal
			err = j.replay(recs)
		}
		if err != nil {
			j.Shutdown(context.Background())
			return nil, err
		}
	}
	j.mux.HandleFunc("POST "+cfg.Path, j.handleSubmit)
	j.mux.HandleFunc("GET "+cfg.Path, j.handleList)
	j.mux.HandleFunc("GET "+cfg.Path+"/{id}", j.handleGet)
	j.mux.HandleFunc("DELETE "+cfg.Path+"/{id}", j.handleCancel)
	j.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, !j.q.Draining())
	})
	j.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, j.ready.Load() && !j.q.Draining())
	})
	return j, nil
}

// HandleFunc mounts a daemon's own route next to the shared ones.
func (j *Jobs[R, V]) HandleFunc(pattern string, h http.HandlerFunc) { j.mux.HandleFunc(pattern, h) }

// Queue exposes the underlying queue (stats, direct submission in tests).
func (j *Jobs[R, V]) Queue() *jobqueue.Queue { return j.q }

// Meta returns a job's Submission.Meta, nil when unknown.
func (j *Jobs[R, V]) Meta(id string) any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.meta[id]
}

// Lookup returns a job's snapshot, or writes the 404 and reports false.
func (j *Jobs[R, V]) Lookup(w http.ResponseWriter, id string) (jobqueue.Snapshot, bool) {
	snap, err := j.q.Get(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, "no %s %q", j.cfg.Noun, id)
		return snap, false
	}
	return snap, true
}

// SetReady flips /readyz; going not-ready also closes Unready's channel.
func (j *Jobs[R, V]) SetReady(ready bool) {
	j.ready.Store(ready)
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.unready:
		if ready {
			j.unready = make(chan struct{})
		}
	default:
		if !ready {
			close(j.unready)
		}
	}
}

// Unready returns a channel closed once the service stops being ready, so
// long-lived responses (event streams) can end instead of starving a drain.
func (j *Jobs[R, V]) Unready() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.unready
}

// Shutdown goes not-ready and drains the queue under ctx's deadline (jobs
// still running when it expires are cancelled), then closes the WAL. Keep
// the listener serving meanwhile so clients can poll final job states.
func (j *Jobs[R, V]) Shutdown(ctx context.Context) error {
	j.SetReady(false)
	err := j.q.Shutdown(ctx)
	if werr := j.wal.Close(); err == nil {
		err = werr
	}
	return err
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

// Flush keeps event streams working through the request log.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP gives every request an id — its X-Request-ID (the coordinator's
// trace-propagation channel) or a minted one — echoed in the response,
// written back onto the request headers and carried through the request log.
func (j *Jobs[R, V]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = j.cfg.MintID()
		r.Header.Set("X-Request-ID", reqID)
	}
	w.Header().Set("X-Request-ID", reqID)
	if j.cfg.Logger == nil {
		j.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	j.mux.ServeHTTP(sw, r)
	j.cfg.Logger.Info("request",
		"id", reqID, "method", r.Method, "path", r.URL.Path,
		"status", sw.status, "dur", time.Since(start))
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes an ErrorResponse with the given status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// TimeOrNil is t's address, nil for the zero time (an omitted JSON field).
func TimeOrNil(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// writeStatus is the /healthz and /readyz body.
func writeStatus(w http.ResponseWriter, ok bool) {
	if ok {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
}

func (j *Jobs[R, V]) logf(level slog.Level, msg string, args ...any) {
	if j.cfg.Logger != nil {
		j.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

// finished is the queue's OnFinish hook.
func (j *Jobs[R, V]) finished(snap jobqueue.Snapshot) {
	if j.cfg.Finished != nil {
		j.cfg.Finished(snap)
	}
	j.mu.Lock()
	release := j.release[snap.ID]
	delete(j.release, snap.ID)
	j.mu.Unlock()
	if release != nil {
		release()
	}
	if snap.Key != "" && snap.State != jobqueue.Cancelled {
		if err := j.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALDone, Key: snap.Key}); err != nil {
			j.logf(slog.LevelError, "wal done append failed", "key", snap.Key, "err", err)
		}
	}
}

// replay resubmits each unfinished keyed job under its key. A record that
// no longer decodes or validates is marked done: it would wedge every start.
func (j *Jobs[R, V]) replay(recs []jobqueue.WALRecord) error {
	for _, rec := range jobqueue.WALUnfinished(recs) {
		var req R
		var sub Submission
		err := json.Unmarshal(rec.Payload, &req)
		if err == nil {
			sub, err = j.cfg.Prepare(&req, "")
		}
		if err != nil {
			j.logf(slog.LevelWarn, "wal replay: dropping unusable record, marking done", "key", rec.Key, "err", err)
			if err := j.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALDone, Key: rec.Key}); err != nil {
				return err
			}
			continue
		}
		sub.Key = rec.Key
		snap, _, err := j.enqueue(sub, nil, nil)
		if err != nil {
			return fmt.Errorf("wal replay %q: %w", rec.Key, err)
		}
		j.logf(slog.LevelInfo, "wal replay: resubmitted job", "key", rec.Key, "id", snap.ID, "trace", snap.Trace)
	}
	return nil
}

// enqueue submits a job; release runs at once unless a new job entered the
// queue. A new job's bookkeeping and (given accept) WAL accept record are
// in place before its task may start, so done always follows accept.
func (j *Jobs[R, V]) enqueue(sub Submission, release func(), accept *R) (jobqueue.Snapshot, bool, error) {
	gate := make(chan struct{})
	defer close(gate)
	task := sub.Task
	snap, deduped, err := j.q.SubmitKeyed(func(ctx context.Context, setPhase func(string)) (any, error) {
		<-gate
		return task(ctx, setPhase)
	}, jobqueue.SubmitOptions{Timeout: sub.Timeout, Key: sub.Key, Trace: sub.Trace})
	if err != nil || deduped {
		if release != nil {
			release()
		}
		return snap, deduped, err
	}
	j.mu.Lock()
	j.meta[snap.ID] = sub.Meta
	if release != nil {
		j.release[snap.ID] = release
	}
	j.mu.Unlock()
	if sub.Key != "" && accept != nil && j.wal != nil {
		payload, err := json.Marshal(accept)
		if err == nil {
			err = j.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALAccept, Key: sub.Key, Payload: payload})
		}
		if err != nil {
			j.logf(slog.LevelError, "wal accept append failed", "key", sub.Key, "err", err)
		}
	}
	return snap, false, nil
}

func (j *Jobs[R, V]) view(snap jobqueue.Snapshot) V {
	return j.cfg.View(snap, j.Meta(snap.ID))
}

func (j *Jobs[R, V]) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req R
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, j.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sub, err := j.cfg.Prepare(&req, r.Header.Get("X-Request-ID"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var release func()
	if j.cfg.Admit != nil {
		var retry time.Duration
		if release, retry, err = j.cfg.Admit(r); err != nil {
			w.Header().Set("Retry-After", jobqueue.RetryAfterSeconds(retry))
			WriteError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
	}
	snap, deduped, err := j.enqueue(sub, release, &req)
	switch {
	case errors.Is(err, jobqueue.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "queue full, retry later")
	case errors.Is(err, jobqueue.ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "%v", err)
	case deduped:
		WriteJSON(w, http.StatusOK, j.view(snap))
	default:
		WriteJSON(w, http.StatusAccepted, j.view(snap))
	}
}

func (j *Jobs[R, V]) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	snaps, next := j.q.ListPage(r.URL.Query().Get("after"), limit)
	views := make([]V, len(snaps))
	for i, snap := range snaps {
		views[i] = j.view(snap)
	}
	WriteJSON(w, http.StatusOK, j.cfg.List(views, next))
}

func (j *Jobs[R, V]) handleGet(w http.ResponseWriter, r *http.Request) {
	if snap, ok := j.Lookup(w, r.PathValue("id")); ok {
		WriteJSON(w, http.StatusOK, j.view(snap))
	}
}

func (j *Jobs[R, V]) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := j.q.Cancel(id)
	switch {
	case errors.Is(err, jobqueue.ErrNotFound):
		WriteError(w, http.StatusNotFound, "no %s %q", j.cfg.Noun, id)
	case errors.Is(err, jobqueue.ErrFinished):
		WriteError(w, http.StatusConflict, "%s %q already %s", j.cfg.Noun, id, snap.State)
	default:
		WriteJSON(w, http.StatusOK, j.view(snap))
	}
}

// Both daemons' server timeouts; no write timeout, because SSE event
// streams and large DEF uploads must outlive any fixed bound.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve listens on addr until SIGTERM or SIGINT, then goes not-ready, drains
// the queue under drainTimeout while still answering polls, and closes the
// listener. It returns an error only when the listener fails.
func (j *Jobs[R, V]) Serve(addr string, drainTimeout time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: j, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	select {
	case sig := <-sigCh:
		j.logf(slog.LevelInfo, "draining", "signal", sig.String(), "timeout", drainTimeout)
	case err := <-errCh:
		return err
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := j.Shutdown(drainCtx); err != nil {
		j.logf(slog.LevelWarn, "drain incomplete, remaining jobs cancelled (keyed ones replay from the WAL)", "err", err)
	} else {
		j.logf(slog.LevelInfo, "queue drained")
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		j.logf(slog.LevelWarn, "http shutdown", "err", err)
	}
	return nil
}

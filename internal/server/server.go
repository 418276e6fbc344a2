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
//	GET    /healthz       200 {"status":"ok"}, 503 {"status":"draining"}
//	                      while draining (liveness)
//	GET    /readyz        the same bodies; 200 only while accepting new work
//	                      — flipped off by SetReady before a drain so
//	                      coordinators and load balancers stop routing here
//	GET    /metrics       Prometheus text exposition
//
// The job service under this API — queue, WAL, status policy, readiness,
// request IDs — is Jobs (jobs.go), shared with the cluster coordinator.
// With Config.DataDir set, keyed submissions are written to an append-only
// JSONL WAL and unfinished ones are resubmitted on startup, so a restart
// does not lose accepted work (the idempotency keys make the replay safe).
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"pilfill"
	"pilfill/internal/jobqueue"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Queue configures the underlying job queue (capacity, workers, default
	// per-job timeout). The OnFinish hook is owned by the job service and
	// must be left nil.
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

// Server is the pilfilld HTTP handler: the shared job service (Jobs) plus
// pilfilld's progress, metrics and pprof routes and its tenant admission.
// Create with New; it owns its queue.
type Server struct {
	*Jobs[SubmitRequest, JobView]
	metrics *metrics
}

// New builds the server, starts its queue workers, and — with a DataDir —
// replays unfinished keyed jobs from the WAL. The returned error is always a
// WAL problem (open, replay); a server without durability cannot fail.
func New(cfg Config) (*Server, error) {
	s := &Server{metrics: newMetrics()}
	factory := cfg.TaskFactory
	if factory == nil {
		queueWorkers := cfg.Queue.Workers
		factory = func(req *SubmitRequest) (jobqueue.Task, error) {
			return defaultTask(req, queueWorkers, s.metrics.progressTiles)
		}
	}
	jcfg := JobsConfig[SubmitRequest, JobView]{
		Path: "/v1/jobs", Noun: "job",
		WALFile: "jobs.wal", DataDir: cfg.DataDir,
		Queue:        cfg.Queue,
		MaxBodyBytes: cfg.MaxBodyBytes,
		Logger:       cfg.Logger,
		Prepare: func(req *SubmitRequest, trace string) (Submission, error) {
			task, err := factory(req)
			return Submission{
				Task:    task,
				Key:     req.Key,
				Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
				Trace:   trace,
				Meta:    req.Method,
			}, err
		},
		View: func(snap jobqueue.Snapshot, method any) JobView {
			m, _ := method.(string)
			return viewOf(snap, m)
		},
		List: func(views []JobView, next string) any {
			for i := range views {
				views[i].Report = nil // keep the listing light; fetch one job for the report
			}
			return ListResponse{Jobs: views, NextAfter: next}
		},
		Finished: s.metrics.jobFinished,
	}
	if cfg.Tenant != nil {
		adm := jobqueue.NewTenantAdmission(*cfg.Tenant)
		s.metrics.registerTenants(adm)
		jcfg.Admit = func(r *http.Request) (func(), time.Duration, error) {
			tenant := r.Header.Get("X-Tenant")
			if res := adm.Admit(tenant); !res.OK {
				return nil, res.RetryAfter, fmt.Errorf("tenant over %s limit, retry later", res.Reason)
			}
			return func() { adm.Release(tenant) }, 0, nil
		}
	}
	jobs, err := NewJobs(jcfg)
	if err != nil {
		return nil, err
	}
	s.Jobs = jobs
	s.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	s.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		s.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// handleProgress serves just the live progress snapshot — the polling-
// friendly subset of the job view the cluster coordinator forwards into its
// chip-level aggregation. An empty object means the job has not published
// progress yet (still pending, or a task without progress instrumentation).
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.Lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	pp := progressOf(snap)
	if pp == nil {
		pp = &ProgressPayload{Phase: snap.Phase}
	}
	WriteJSON(w, http.StatusOK, struct {
		ID    string `json:"id"`
		State string `json:"state"`
		*ProgressPayload
	}{ID: snap.ID, State: snap.State.String(), ProgressPayload: pp})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.write(w, s.Queue().Stats()) // write errors mean a gone client
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

// defaultTask validates the request up-front (so bad submissions fail with
// 400 instead of a Failed job) and returns a task that loads the layout,
// prepares a session, and runs the method under the job's context.
// Cancellation between phases is checked explicitly; during the solve it
// propagates through Session.RunContext to the tile loops and ILP node
// loops.
func defaultTask(req *SubmitRequest, queueWorkers int, progressTiles *obs.Counter) (jobqueue.Task, error) {
	m, ok := ParseMethod(req.Method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
	opts, err := req.Options.SessionOptions()
	if err != nil {
		return nil, err
	}
	opts.Workers = EffectiveWorkers(opts.Workers, queueWorkers)
	if req.Region != nil {
		return regionTask(req, m, opts, progressTiles)
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

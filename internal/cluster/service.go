// service.go is pilfill-coord's serve mode: whole-chip jobs on the job
// service pilfilld runs on (server.Jobs), run through the Coordinator. The
// queue, the chip WAL (chips.wal, next to the coordinator's regions.wal), the
// submit/list/get/cancel handlers, their status policy, /healthz, /readyz and
// request IDs are that shared service's; this file adds only what is the
// coordinator's own: how a ChipSubmitRequest becomes a task, the ChipView,
// and the progress, events, trace, statusz and metrics routes. Unfinished
// keyed chips are resubmitted on restart, where they pick their finished
// regions back up from the region WAL and re-scatter only the rest.
//
//	POST   /v1/chips               submit a chip job       -> 202 ChipView (200 on key dedupe)
//	GET    /v1/chips               list jobs               -> 200 ChipListResponse (?limit=, ?after=)
//	GET    /v1/chips/{id}          job state + report      -> 200 ChipView
//	DELETE /v1/chips/{id}          cancel                  -> 200 ChipView (409 if finished)
//	GET    /v1/chips/{id}/progress live aggregated progress-> 200 chip progress
//	GET    /v1/chips/{id}/events   progress stream (SSE; ends with a terminal event)
//	GET    /v1/chips/{id}/trace    merged multi-process Chrome trace (collect_trace chips)
//	GET    /statusz                cluster status page (HTML; ?format=json)
//	GET    /healthz                liveness                -> 200 {"status":"ok"} while serving
//	GET    /readyz                 routing readiness       -> 503 once draining starts
//	GET    /metrics                Prometheus exposition (coordinator + queue families)
//
// A chip submitted without X-Request-ID gets a minted chip trace ID, unique
// across restarts, which the response echoes as its X-Request-ID.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
	"pilfill/internal/server"
)

// ChipSubmitRequest is the body of POST /v1/chips.
type ChipSubmitRequest struct {
	// Key is an optional idempotency key; resubmitting a known key returns
	// the existing chip job, and keyed jobs survive a coordinator restart.
	Key string  `json:"key,omitempty"`
	Job ChipJob `json:"job"`
}

// ChipView is the wire form of one chip job.
type ChipView struct {
	ID        string        `json:"id"`
	Key       string        `json:"key,omitempty"`
	State     string        `json:"state"`
	Phase     string        `json:"phase,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Error     string        `json:"error,omitempty"`
	Report    *MergedReport `json:"report,omitempty"`
}

// ChipListResponse is the response of GET /v1/chips; NextAfter is the
// pagination cursor when ?limit= truncated the listing.
type ChipListResponse struct {
	Chips     []ChipView `json:"chips"`
	NextAfter string     `json:"next_after,omitempty"`
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Coordinator runs the chips (required).
	Coordinator *Coordinator
	// Queue bounds concurrently running chips and the pending buffer.
	Queue jobqueue.Config
	// DataDir, when set, holds the chip WAL (chips.wal).
	DataDir string
	// MaxBodyBytes bounds request bodies; default 64 MiB.
	MaxBodyBytes int64
	// Logger receives request/lifecycle logs; nil disables.
	Logger *slog.Logger
	// Registry serves /metrics; usually the same registry the Coordinator
	// was built with, so one scrape covers both. Default: a new registry.
	Registry *obs.Registry
}

// Service is the coordinator HTTP front end: the shared job service plus
// the coordinator's own routes. Create with NewService; it implements
// http.Handler.
type Service struct {
	*server.Jobs[ChipSubmitRequest, ChipView]
	coord *Coordinator
	log   *slog.Logger
}

// NewService builds the service, replaying the chip WAL when DataDir is set.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: service needs a coordinator")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Service{coord: cfg.Coordinator, log: cfg.Logger}
	jobs, err := server.NewJobs(server.JobsConfig[ChipSubmitRequest, ChipView]{
		Path: "/v1/chips", Noun: "chip",
		WALFile: "chips.wal", DataDir: cfg.DataDir,
		Queue:        cfg.Queue,
		MaxBodyBytes: cfg.MaxBodyBytes,
		Logger:       cfg.Logger,
		MintID:       newTraceID,
		Prepare:      s.prepare,
		View:         func(snap jobqueue.Snapshot, _ any) ChipView { return chipView(snap) },
		List: func(views []ChipView, next string) any {
			return ChipListResponse{Chips: views, NextAfter: next}
		},
	})
	if err != nil {
		return nil, err
	}
	s.Jobs = jobs
	s.HandleFunc("GET /v1/chips/{id}/progress", s.handleProgress)
	s.HandleFunc("GET /v1/chips/{id}/events", s.handleEvents)
	s.HandleFunc("GET /v1/chips/{id}/trace", s.handleTrace)
	s.HandleFunc("GET /statusz", s.handleStatusz)
	s.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.Write(w)
	})
	return s, nil
}

// prepare validates a chip submission cheaply up front, so defective ones
// fail with 400 instead of a Failed job (method, layout source and kernel
// are the usual typos), and wraps it in a task feeding a fresh ChipRun.
func (s *Service) prepare(req *ChipSubmitRequest, trace string) (server.Submission, error) {
	if _, ok := server.ParseMethod(req.Job.Method); !ok {
		return server.Submission{}, fmt.Errorf("unknown method %q", req.Job.Method)
	}
	if req.Job.DEF == "" && (req.Job.CellsX <= 0 || req.Job.CellsY <= 0) {
		return server.Submission{}, errors.New("chip job needs an inline def or cells_x/cells_y")
	}
	if _, err := ParseKernel(req.Job.withDefaults().Kernel); err != nil {
		return server.Submission{}, err
	}
	run := NewChipRun(trace, req.Job.CollectTrace)
	job := req.Job
	return server.Submission{
		Task: func(ctx context.Context, setPhase func(string)) (any, error) {
			setPhase("prepare")
			run.setState("preparing")
			prep, err := PrepareChip(job)
			if err != nil {
				run.setState("failed")
				return nil, err
			}
			setPhase("scatter")
			return s.coord.RunChipObserved(ctx, prep, run)
		},
		Key:   req.Key,
		Trace: run.TraceID,
		Meta:  run,
	}, nil
}

// runOf returns the ChipRun for a job ID, nil when unknown.
func (s *Service) runOf(id string) *ChipRun {
	run, _ := s.Meta(id).(*ChipRun)
	return run
}

// chipProgressView is the wire form of GET /v1/chips/{id}/progress and each
// SSE progress event: the queue's authoritative job state wrapped around the
// ChipRun's aggregated region view (absent before the run is registered).
type chipProgressView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Phase string `json:"phase,omitempty"`
	*ChipProgress
}

func (s *Service) progressView(snap jobqueue.Snapshot) chipProgressView {
	v := chipProgressView{ID: snap.ID, State: snap.State.String()}
	if snap.State == jobqueue.Running {
		v.Phase = snap.Phase
	}
	if run := s.runOf(snap.ID); run != nil {
		v.ChipProgress = run.Progress()
	}
	return v
}

func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	if snap, ok := s.Lookup(w, r.PathValue("id")); ok {
		server.WriteJSON(w, http.StatusOK, s.progressView(snap))
	}
}

// handleEvents streams progress snapshots as server-sent events until the
// chip reaches a terminal state ("end" event) or the service drains
// ("shutdown" event) — the stream never outlives readiness, so a watching
// client cannot wedge a SIGTERM.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Lookup(w, id); !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		server.WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	drain := s.Unready()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		snap, err := s.Queue().Get(id)
		if err != nil {
			fmt.Fprintf(w, "event: end\ndata: {\"state\":\"gone\"}\n\n")
			fl.Flush()
			return
		}
		data, _ := json.Marshal(s.progressView(snap))
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		if snap.State.Terminal() {
			fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", snap.State.String())
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-drain:
			fmt.Fprintf(w, "event: shutdown\ndata: {\"state\":%q}\n\n", snap.State.String())
			fl.Flush()
			return
		case <-ticker.C:
		}
	}
}

// handleTrace serves the merged multi-process Chrome trace of a finished
// collect_trace chip.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.Lookup(w, id)
	if !ok {
		return
	}
	run := s.runOf(id)
	if run == nil || !run.CollectsTraces() {
		server.WriteError(w, http.StatusNotFound, "chip did not collect traces (set job.collect_trace)")
		return
	}
	if !snap.State.Terminal() {
		server.WriteError(w, http.StatusConflict, "trace is available once the chip finishes")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := run.WriteMergedTrace(w); err != nil {
		if s.log != nil {
			s.log.Warn("merged trace write failed", "id", id, "err", err)
		}
	}
}

// chipView is the wire form of a chip job snapshot.
func chipView(snap jobqueue.Snapshot) ChipView {
	v := ChipView{
		ID:        snap.ID,
		Key:       snap.Key,
		State:     snap.State.String(),
		Submitted: snap.Submitted,
		Started:   server.TimeOrNil(snap.Started),
		Finished:  server.TimeOrNil(snap.Finished),
	}
	if snap.Err != nil {
		v.Error = snap.Err.Error()
	}
	switch snap.State {
	case jobqueue.Running:
		v.Phase = snap.Phase
	case jobqueue.Done:
		if rep, ok := snap.Result.(*MergedReport); ok {
			v.Report = rep
		}
	}
	return v
}

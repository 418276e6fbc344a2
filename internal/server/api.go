// api.go defines pilfilld's wire types: the job-submission request, the job
// view returned by GET, and the report payload — the machine-readable form
// of a pilfill.Report shared verbatim by the daemon's API and the pilfill
// CLI's -json flag.
package server

import (
	"fmt"
	"strings"
	"time"

	"pilfill"
	"pilfill/internal/core"
	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
	"pilfill/internal/testcases"
)

// SubmitRequest is the body of POST /v1/jobs. Exactly one of Testcase and
// DEF must be set.
type SubmitRequest struct {
	// Testcase names a built-in synthetic layout: "T1" or "T2".
	Testcase string `json:"testcase,omitempty"`
	// DEF is an inline layout in the DEF-subset dialect.
	DEF string `json:"def,omitempty"`
	// LEF optionally supplies layer definitions for DEF (standard LEF).
	LEF string `json:"lef,omitempty"`
	// Method is the placement method, CLI spelling: Normal, Greedy, ILP-I,
	// ILP-II, DP, MarginalGreedy, GreedyCapped, DualAscent.
	Method string `json:"method"`
	// Options mirror the pilfill CLI flags.
	Options SubmitOptions `json:"options"`
	// TimeoutMS bounds the job's run time in milliseconds; 0 uses the
	// daemon's default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Key is an optional idempotency key: resubmitting with a known key
	// returns the existing job (200 instead of 202) without enqueueing
	// anything. With a -data-dir configured, keyed jobs are also written to
	// the worker's WAL and resubmitted after a restart.
	Key string `json:"key,omitempty"`
	// Region, when set, makes this a sharded region job: solve only the
	// owned tile rectangle of DEF under the supplied budget (see RegionSpec).
	Region *RegionSpec `json:"region,omitempty"`
}

// SubmitOptions is the JSON projection of pilfill.Options the service
// accepts (layout-independent knobs only).
type SubmitOptions struct {
	Window       int     `json:"window,omitempty"` // in W units of 1.6 um; default 32
	R            int     `json:"r,omitempty"`      // dissection factor; default 4
	Weighted     bool    `json:"weighted,omitempty"`
	SlackDef     int     `json:"slackdef,omitempty"` // 1, 2 or 3; default 3
	Seed         int64   `json:"seed,omitempty"`
	NetCapPS     float64 `json:"netcap_ps,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	Grounded     bool    `json:"grounded,omitempty"`
	ILPNodeLimit int     `json:"ilp_node_limit,omitempty"`
	NoSolveMemo  bool    `json:"no_solve_memo,omitempty"`
	// DualGapTol is DualAscent's relative duality-gap acceptance threshold;
	// 0 selects the default (1e-9).
	DualGapTol float64 `json:"dual_gap_tol,omitempty"`
	// CollectTrace records the run's obs spans and ships them in the report
	// payload (ReportPayload.Trace), letting a coordinator merge worker spans
	// into one cluster-wide Chrome trace.
	CollectTrace bool `json:"collect_trace,omitempty"`
}

// SessionOptions is the one mapping from submitted options to
// pilfill.Options: it applies the service defaults (window 32, r 4, slack
// definition III, the T1/T2 fill rule), range-checks SlackDef, converts
// NetCapPS to seconds and carries every solver knob across. Whole-layout
// jobs hand the result to pilfill.NewSession; region jobs and the cluster's
// single-process reference turn it into an engine config with
// pilfill.Options.EngineConfig, so all three solve under the same knobs.
// CollectTrace is not a session option: the caller owns the tracer.
func (o SubmitOptions) SessionOptions() (pilfill.Options, error) {
	if o.Window == 0 {
		o.Window = 32
	}
	if o.R == 0 {
		o.R = 4
	}
	if o.SlackDef == 0 {
		o.SlackDef = 3
	}
	if o.SlackDef < 1 || o.SlackDef > 3 {
		return pilfill.Options{}, fmt.Errorf("slackdef %d out of range [1,3]", o.SlackDef)
	}
	return pilfill.Options{
		Window:       testcases.WindowNM(o.Window),
		R:            o.R,
		Rule:         pilfill.DefaultRuleT1T2(),
		Weighted:     o.Weighted,
		Def:          pilfill.SlackDef(o.SlackDef),
		Seed:         o.Seed,
		NetCap:       o.NetCapPS * 1e-12,
		DualGapTol:   o.DualGapTol,
		Workers:      o.Workers,
		Grounded:     o.Grounded,
		ILPNodeLimit: o.ILPNodeLimit,
		NoSolveMemo:  o.NoSolveMemo,
	}, nil
}

// JobView is the response of POST /v1/jobs, GET /v1/jobs/{id} and
// DELETE /v1/jobs/{id}.
type JobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Phase is the job's current phase while running ("load", "prepare",
	// "solve"); for finished jobs the phase timing breakdown is in
	// Report.PhasesMS.
	Phase     string     `json:"phase,omitempty"`
	Method    string     `json:"method,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// TraceID is the distributed request/trace ID bound at submission (the
	// X-Request-ID header), echoed so pollers can correlate across processes.
	TraceID string `json:"trace_id,omitempty"`
	// Progress is the live solve-progress snapshot while the job runs (also
	// available alone at GET /v1/jobs/{id}/progress).
	Progress *ProgressPayload `json:"progress,omitempty"`
	Error    string           `json:"error,omitempty"`
	Report   *ReportPayload   `json:"report,omitempty"`
}

// ListResponse is the response of GET /v1/jobs. When the listing was
// truncated by ?limit=, NextAfter carries the cursor for the next page
// (pass it as ?after=); it is empty on the final page.
type ListResponse struct {
	Jobs      []JobView `json:"jobs"`
	NextAfter string    `json:"next_after,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ReportPayload is the machine-readable pilfill.Report: totals in
// picoseconds, times in milliseconds, the Result.Phases breakdown, density
// control before/after, and the capacitance-table cache counters.
type ReportPayload struct {
	Method    string `json:"method"`
	Requested int    `json:"requested"`
	Placed    int    `json:"placed"`
	Tiles     int    `json:"tiles"`
	ILPNodes  int    `json:"ilp_nodes,omitempty"`
	LPPivots  int    `json:"lp_pivots,omitempty"`
	// DualFallbacks counts DualAscent tiles whose optimality certificate did
	// not close and that fell back to branch-and-bound.
	DualFallbacks int     `json:"dual_fallbacks,omitempty"`
	UnweightedPS  float64 `json:"unweighted_ps"`
	WeightedPS    float64 `json:"weighted_ps"`
	SolveCPUMS    float64 `json:"solve_cpu_ms"`
	WallMS        float64 `json:"wall_ms"`
	// Workers is the effective tile-solver worker count the run used (after
	// the daemon's CPU-share clamping; see EffectiveWorkers).
	Workers  int            `json:"workers,omitempty"`
	PhasesMS PhasesPayload  `json:"phases_ms"`
	Density  DensityPayload `json:"density"`
	Cache    *CachePayload  `json:"cache,omitempty"`
	// MemoHits/MemoMisses are this run's tile-solve memo lookups; Memo
	// snapshots the memo's cumulative counters (process-wide by default).
	MemoHits   int          `json:"memo_hits,omitempty"`
	MemoMisses int          `json:"memo_misses,omitempty"`
	Memo       *MemoPayload `json:"memo,omitempty"`
	// Region carries a sharded region job's merge inputs (fills and delay
	// subtotals in chip coordinates); nil for whole-layout jobs.
	Region *RegionPayload `json:"region,omitempty"`
	// Trace is the run's serialized span buffer, present only when the
	// submission asked for it (SubmitOptions.CollectTrace). It rides the
	// report — not the region merge inputs — so WAL-cached region results
	// stay lean; a region replayed from the coordinator's WAL therefore
	// contributes no spans to a merged trace.
	Trace *obs.TraceDump `json:"trace,omitempty"`
}

// PhasesPayload is core.PhaseTimes in milliseconds.
type PhasesPayload struct {
	Preprocess float64 `json:"preprocess"`
	Solve      float64 `json:"solve"`
	Evaluate   float64 `json:"evaluate"`
	Place      float64 `json:"place"`
}

// DensityPayload is the window-density control of a report.
type DensityPayload struct {
	MinBefore float64 `json:"min_before"`
	MaxBefore float64 `json:"max_before"`
	MinAfter  float64 `json:"min_after"`
	MaxAfter  float64 `json:"max_after"`
}

// CachePayload snapshots the cap-table cache counters. The default cache is
// process-wide, so the figures are cumulative across jobs.
type CachePayload struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// MemoPayload snapshots the tile-solve memo counters. The default memo is
// process-wide, so the figures are cumulative across jobs.
type MemoPayload struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Stored  uint64 `json:"stored"`
	Entries int    `json:"entries"`
}

// BuildReport converts a finished run into the wire payload. It is the one
// serialization of a Report — the daemon's GET response and the CLI's -json
// output both go through it.
func BuildReport(s *pilfill.Session, rep *pilfill.Report) *ReportPayload {
	res := rep.Result
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	p := &ReportPayload{
		Method:        res.Method.String(),
		Requested:     res.Requested,
		Placed:        res.Placed,
		Tiles:         res.Tiles,
		ILPNodes:      res.ILPNodes,
		LPPivots:      res.LPPivots,
		DualFallbacks: res.DualFallbacks,
		UnweightedPS:  res.Unweighted * 1e12,
		WeightedPS:    res.Weighted * 1e12,
		SolveCPUMS:    ms(res.CPU),
		WallMS:        ms(res.Wall),
		Workers:       max(1, s.Engine.Cfg.Workers),
		PhasesMS: PhasesPayload{
			Preprocess: ms(res.Phases.Preprocess),
			Solve:      ms(res.Phases.Solve),
			Evaluate:   ms(res.Phases.Evaluate),
			Place:      ms(res.Phases.Place),
		},
		Density: DensityPayload{
			MinBefore: rep.MinBefore,
			MaxBefore: rep.MaxBefore,
			MinAfter:  rep.MinAfter,
			MaxAfter:  rep.MaxAfter,
		},
	}
	if cs := s.CacheStats(); cs.Hits+cs.Misses > 0 {
		p.Cache = &CachePayload{Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries}
	}
	p.MemoHits, p.MemoMisses = res.MemoHits, res.MemoMisses
	if ms := s.MemoStats(); ms.Hits+ms.Misses > 0 {
		p.Memo = &MemoPayload{Hits: ms.Hits, Misses: ms.Misses, Stored: ms.Stored, Entries: ms.Entries}
	}
	return p
}

// ParseMethod resolves the CLI/API method spellings (case-insensitive).
func ParseMethod(s string) (core.Method, bool) {
	switch strings.ToLower(s) {
	case "normal":
		return core.Normal, true
	case "greedy":
		return core.Greedy, true
	case "ilp-i", "ilpi", "ilp1":
		return core.ILPI, true
	case "ilp-ii", "ilpii", "ilp2":
		return core.ILPII, true
	case "dp":
		return core.DP, true
	case "marginal", "marginalgreedy":
		return core.MarginalGreedy, true
	case "greedycapped", "capped":
		return core.GreedyCapped, true
	case "dualascent", "dual-ascent", "dual":
		return core.DualAscent, true
	}
	return 0, false
}

// viewOf converts a queue snapshot (plus the method recorded at submit
// time) to the wire form.
func viewOf(snap jobqueue.Snapshot, method string) JobView {
	v := JobView{
		ID:        snap.ID,
		State:     snap.State.String(),
		Method:    method,
		Submitted: snap.Submitted,
		TraceID:   snap.Trace,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		v.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		v.Finished = &t
	}
	if snap.Err != nil {
		v.Error = snap.Err.Error()
	}
	switch snap.State {
	case jobqueue.Running:
		v.Phase = snap.Phase
		v.Progress = progressOf(snap)
	case jobqueue.Done:
		if rep, ok := snap.Result.(*ReportPayload); ok {
			v.Report = rep
		}
	}
	return v
}

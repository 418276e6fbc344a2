// chip.go defines the chip-level job the coordinator accepts and the shared
// preparation pipeline: layout in, FFT effective-density budget out, sharded
// into self-contained region jobs. RunChipLocal runs the same region sequence
// on one in-process engine (the benchchip masked-budget idiom) — the
// single-process reference a clustered run must match bit for bit.
package cluster

import (
	"context"
	"fmt"
	"strings"

	"pilfill"
	"pilfill/internal/core"
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/server"
	"pilfill/internal/shard"
	"pilfill/internal/testcases"
)

// ChipJob is one whole-chip fill-synthesis request: the layout (inline DEF or
// a generated synthetic chip), the dissection and budgeting parameters, the
// region grid to shard over, and the worker-side solve options.
type ChipJob struct {
	// DEF is an inline layout; when empty, CellsX x CellsY selects a
	// generated testcases chip (12800 x 3200 nm cells).
	DEF    string `json:"def,omitempty"`
	CellsX int    `json:"cells_x,omitempty"`
	CellsY int    `json:"cells_y,omitempty"`

	// WindowNM and R set the fixed r-dissection (default 12800 nm, r = 4).
	WindowNM int64 `json:"window_nm,omitempty"`
	R        int   `json:"r,omitempty"`
	// Layer is the routing layer to fill (default 0).
	Layer int `json:"layer,omitempty"`
	// Fill rule in nanometers; zero values take the chip default (150/50/150).
	RuleFeatureNM int64 `json:"rule_feature_nm,omitempty"`
	RuleGapNM     int64 `json:"rule_gap_nm,omitempty"`
	RuleBufferNM  int64 `json:"rule_buffer_nm,omitempty"`

	// GX, GY set the region grid (default 1x1: a single region job).
	GX int `json:"gx,omitempty"`
	GY int `json:"gy,omitempty"`

	// Kernel names the effective-density kernel: flat, elliptic (default) or
	// gaussian. TargetMin is the minimum effective density the budgeter lifts
	// every window to (default 0.25); MaxDensity the cap (default 0.7).
	Kernel     string  `json:"kernel,omitempty"`
	TargetMin  float64 `json:"target_min,omitempty"`
	MaxDensity float64 `json:"max_density,omitempty"`

	// Method is the placement method (CLI spelling; required).
	Method string `json:"method"`
	// Options are the worker-side solve knobs, forwarded to every region job.
	Options server.SubmitOptions `json:"options"`
	// TimeoutMS bounds each region job's run time on its worker.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// CollectTrace asks every worker to record a span buffer for its region
	// job and ship it back with the report; the coordinator merges the dumps
	// with its own spans into one multi-process Chrome trace. It rides here
	// rather than in Options so the region idempotency key — and therefore
	// WAL/dedupe identity — does not depend on whether tracing is on (a
	// region replayed from a traceless earlier run simply contributes no
	// spans).
	CollectTrace bool `json:"collect_trace,omitempty"`
}

// withDefaults returns a copy with the documented defaults applied.
func (j ChipJob) withDefaults() ChipJob {
	if j.WindowNM == 0 {
		j.WindowNM = 12800
	}
	if j.R == 0 {
		j.R = 4
	}
	if j.RuleFeatureNM == 0 && j.RuleGapNM == 0 && j.RuleBufferNM == 0 {
		j.RuleFeatureNM, j.RuleGapNM, j.RuleBufferNM = 150, 50, 150
	}
	if j.GX == 0 {
		j.GX = 1
	}
	if j.GY == 0 {
		j.GY = 1
	}
	if j.Kernel == "" {
		j.Kernel = "elliptic"
	}
	if j.TargetMin == 0 {
		j.TargetMin = 0.25
	}
	if j.MaxDensity == 0 {
		j.MaxDensity = 0.7
	}
	return j
}

// ParseKernel resolves the kernel spelling used by ChipJob and the CLIs.
func ParseKernel(s string) (density.KernelKind, error) {
	switch strings.ToLower(s) {
	case "flat":
		return density.FlatKernel, nil
	case "elliptic":
		return density.EllipticKernel, nil
	case "gaussian":
		return density.GaussianKernel, nil
	}
	return 0, fmt.Errorf("cluster: unknown kernel %q (flat|elliptic|gaussian)", s)
}

// Prep is a prepared chip: everything RunChip and RunChipLocal share. The
// budget is computed once, whole-chip, on the coordinator — regions receive
// their slice of it, so budget math never depends on the region grid.
type Prep struct {
	Job      ChipJob // with defaults applied
	Layout   *layout.Layout
	Dis      *layout.Dissection
	Rule     layout.FillRule
	Plan     *shard.Plan
	Jobs     []*shard.Job
	Budget   density.Budget
	Achieved float64 // FFTBudget's achieved minimum effective density
	NetNames []string
}

// PrepareChip validates a chip job and runs the shared pipeline: load or
// generate the layout, build the occupancy-backed density grid (no engine —
// budgeting needs no RC analysis), run FFTBudget, and shard the budget into
// region jobs.
func PrepareChip(job ChipJob) (*Prep, error) {
	j := job.withDefaults()
	if _, ok := server.ParseMethod(j.Method); !ok {
		return nil, fmt.Errorf("cluster: unknown method %q", j.Method)
	}

	var (
		l    *layout.Layout
		rule = layout.FillRule{Feature: j.RuleFeatureNM, Gap: j.RuleGapNM, Buffer: j.RuleBufferNM}
		err  error
	)
	switch {
	case j.DEF != "":
		l, err = pilfill.LoadDEF(strings.NewReader(j.DEF))
		if err != nil {
			return nil, fmt.Errorf("cluster: load chip layout: %w", err)
		}
	case j.CellsX > 0 && j.CellsY > 0:
		spec := testcases.Chip(j.CellsX, j.CellsY)
		if job.RuleFeatureNM == 0 && job.RuleGapNM == 0 && job.RuleBufferNM == 0 {
			rule = spec.Rule
		}
		l, err = testcases.GenerateChip(spec)
		if err != nil {
			return nil, fmt.Errorf("cluster: generate chip: %w", err)
		}
	default:
		return nil, fmt.Errorf("cluster: chip job needs an inline def or cells_x/cells_y")
	}

	dis, err := layout.NewDissection(l.Die, j.WindowNM, j.R)
	if err != nil {
		return nil, fmt.Errorf("cluster: dissection: %w", err)
	}
	kind, err := ParseKernel(j.Kernel)
	if err != nil {
		return nil, err
	}
	if j.Layer < 0 || j.Layer >= len(l.Layers) {
		return nil, fmt.Errorf("cluster: layer %d out of range", j.Layer)
	}

	grid, err := layout.NewSiteGrid(l.Die, rule)
	if err != nil {
		return nil, fmt.Errorf("cluster: site grid: %w", err)
	}
	occ := layout.NewOccupancy(l, grid, j.Layer)
	dgrid := density.NewGrid(l, dis, occ, j.Layer)
	budget, achieved, err := density.FFTBudget(dgrid, density.NewKernel(kind, j.R), density.FFTBudgetOptions{
		TargetMin:  j.TargetMin,
		MaxDensity: j.MaxDensity,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: budget: %w", err)
	}

	plan, err := shard.NewPlan(l, dis, rule, j.Layer, j.GX, j.GY)
	if err != nil {
		return nil, err
	}
	jobs, err := plan.Jobs(budget)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(l.Nets))
	for i, n := range l.Nets {
		names[i] = n.Name
	}
	return &Prep{
		Job: j, Layout: l, Dis: dis, Rule: rule,
		Plan: plan, Jobs: jobs,
		Budget: budget, Achieved: achieved, NetNames: names,
	}, nil
}

// engineConfig is the reference run's engine config: the same
// SubmitOptions → pilfill.Options → core.Config chain a worker's region job
// uses, plus the chip's layer (tile offsets stay zero: the reference engine
// sees the whole chip).
func engineConfig(j *ChipJob) (core.Config, error) {
	opts, err := j.Options.SessionOptions()
	if err != nil {
		return core.Config{}, fmt.Errorf("cluster: %w", err)
	}
	cfg := opts.EngineConfig()
	cfg.Layer = j.Layer
	return cfg, nil
}

// RunChipLocal is the single-process run of a prepared chip: one whole-chip
// engine, one masked-budget solve per region in region-index order, gathered
// through the same MergeRegions the coordinator uses. This is the reference
// a clustered run must be bit-identical to — and it is itself the benchchip
// stripe idiom, so it matches a plain whole-chip run whenever the region
// order coincides with the global instance order (gy = 1).
func RunChipLocal(ctx context.Context, prep *Prep) (*MergedReport, error) {
	m, ok := server.ParseMethod(prep.Job.Method)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown method %q", prep.Job.Method)
	}
	cfg, err := engineConfig(&prep.Job)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(prep.Layout, prep.Dis, prep.Rule, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: reference engine: %w", err)
	}
	payloads := make([]*server.RegionPayload, len(prep.Plan.Regions))
	for n, reg := range prep.Plan.Regions {
		instances, err := eng.Instances(shard.MaskedBudget(prep.Budget, reg.Owned))
		if err != nil {
			return nil, fmt.Errorf("cluster: region %s instances: %w", reg.Owned, err)
		}
		res, err := eng.RunContext(ctx, m, instances)
		if err != nil {
			return nil, fmt.Errorf("cluster: region %s: %w", reg.Owned, err)
		}
		payloads[n] = localRegionPayload(reg.ID(prep.Plan.GX, prep.Plan.GY), prep.Layout, res)
	}
	rep, err := MergeRegions(prep.NetNames, payloads)
	if err != nil {
		return nil, err
	}
	rep.Method = m.String()
	rep.BudgetAchievedMin = prep.Achieved
	return rep, nil
}

// localRegionPayload converts an in-process region result (already in chip
// coordinates) to the wire payload shape, so local and clustered runs merge
// through identical code.
func localRegionPayload(id string, l *layout.Layout, res *core.Result) *server.RegionPayload {
	rp := &server.RegionPayload{
		ID:         id,
		Tiles:      res.Tiles,
		Requested:  res.Requested,
		Placed:     res.Placed,
		ILPNodes:   res.ILPNodes,
		LPPivots:   res.LPPivots,
		Repaired:   res.IncumbentsRepaired,
		Dropped:    res.IncumbentsDropped,
		Unweighted: res.Unweighted,
		Weighted:   res.Weighted,
		Fills:      make([][2]int, 0, len(res.Fill.Fills)),
	}
	fh := server.NewFillHasher()
	for _, f := range res.Fill.Fills {
		rp.Fills = append(rp.Fills, [2]int{f.Col, f.Row})
		fh.Add(f.Col, f.Row)
	}
	rp.FillHash = fh.Sum()
	for n, v := range res.PerNet {
		if v != 0 {
			if rp.PerNet == nil {
				rp.PerNet = make(map[string]float64)
			}
			rp.PerNet[l.Nets[n].Name] = v
		}
	}
	return rp
}

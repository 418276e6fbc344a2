// Package pilfill is the public entry point of the performance-impact
// limited area fill library — a from-scratch implementation of Chen, Gupta
// and Kahng, "Performance-Impact Limited Area Fill Synthesis" (2003).
//
// The pipeline: a routed layout is cut by a fixed r-dissection into tiles
// and density windows; a density budgeter decides how many floating fill
// features each tile must receive (the CMP uniformity requirement); then a
// placement method decides *which* slack sites get the fill so that the
// Elmore-delay impact on the active wiring is minimized. The paper's three
// methods (Greedy, ILP-I, ILP-II) plus the density-only Normal baseline and
// this implementation's exact/ablation solvers (DP, MarginalGreedy,
// GreedyCapped, DualAscent) are all available and place identical fill
// *amounts* per tile — density control is the same, only delay impact
// differs.
//
// Basic use:
//
//	l, _ := pilfill.GenerateT1()
//	s, _ := pilfill.NewSession(l, pilfill.Options{Window: 32000, R: 4})
//	rep, _ := s.Run(pilfill.ILPII)
//	fmt.Println(rep.Summary())
package pilfill

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"pilfill/internal/cap"
	"pilfill/internal/core"
	"pilfill/internal/def"
	"pilfill/internal/density"
	"pilfill/internal/drc"
	"pilfill/internal/gds"
	"pilfill/internal/geom"
	"pilfill/internal/ilp"
	"pilfill/internal/layout"
	"pilfill/internal/lef"
	"pilfill/internal/obs"
	"pilfill/internal/scanline"
	"pilfill/internal/svg"
	"pilfill/internal/testcases"
	"pilfill/internal/timing"
)

// Re-exported method identifiers.
const (
	Normal         = core.Normal
	Greedy         = core.Greedy
	ILPI           = core.ILPI
	ILPII          = core.ILPII
	DP             = core.DP
	MarginalGreedy = core.MarginalGreedy
	GreedyCapped   = core.GreedyCapped
	DualAscent     = core.DualAscent
)

// Method selects a placement algorithm (see the constants above).
type Method = core.Method

// SlackDef selects a slack-column definition (scanline.DefI/II/III).
type SlackDef = scanline.Def

// Re-exported slack-column definitions.
const (
	SlackColumnI   = scanline.DefI
	SlackColumnII  = scanline.DefII
	SlackColumnIII = scanline.DefIII
)

// Options configures a fill-synthesis session.
type Options struct {
	// Layer is the routing layer to fill (default 0, the horizontal layer).
	Layer int
	// Window is the density window size in nm (w of the fixed r-dissection).
	Window int64
	// R is the dissection factor (tiles per window side).
	R int
	// Rule overrides the fill design rule; the zero value uses
	// feature 400 nm, gap 200 nm, buffer 300 nm.
	Rule layout.FillRule
	// Weighted optimizes (and reports prominently) the sink-weighted
	// objective of the paper's Table 2 instead of Table 1.
	Weighted bool
	// Def is the slack-column definition; zero means SlackColumnIII.
	Def SlackDef
	// TargetMinDensity is the window density the budgeter lifts every
	// window to; 0 means "the maximum achievable", determined by a probe
	// run.
	TargetMinDensity float64
	// MaxDensity is the upper window density bound; 0 means 0.7.
	MaxDensity float64
	// Seed drives the budgeter's and the Normal baseline's randomness.
	Seed int64
	// ILPNodeLimit caps branch-and-bound nodes per tile (0 = default).
	ILPNodeLimit int
	// NetCap bounds each net's added delay per tile, in seconds, for
	// GreedyCapped, ILP-II and DualAscent (0 = off).
	NetCap float64
	// DualGapTol is DualAscent's relative duality-gap acceptance threshold;
	// 0 selects the default (1e-9). See core.Config.DualGapTol.
	DualGapTol float64
	// Activity holds optional per-net switching activities in [0, 1] for
	// crosstalk-aware costing (switch-factor model); nil = quiet neighbors.
	Activity []float64
	// Workers solves tiles — and runs engine preprocessing (per-net RC
	// analysis, per-tile instance construction) — concurrently when > 1;
	// results are identical to the serial run.
	Workers int
	// Grounded models tied-to-ground fill instead of floating fill:
	// heavier loading, crosstalk shielding. See core.Config.Grounded.
	Grounded bool
	// NoTableCache disables the capacitance-table memo cache (every column
	// rebuilds its own table); results are identical either way. Mainly for
	// benchmarking the cache itself.
	NoTableCache bool
	// NoSolveMemo disables the content-hash tile-solve memo (every tile is
	// solved from scratch); results are bit-identical either way. Mainly for
	// benchmarking the memo itself.
	NoSolveMemo bool
	// Trace optionally records hierarchical spans (run → prep → tile →
	// solve, plus ILP progress instants) into an obs.Tracer ring buffer for
	// Chrome-trace export. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Logger receives structured solve-path logs (slow-tile warnings at
	// Warn, ILP progress at Debug). Nil disables logging.
	Logger *slog.Logger
	// SlowTileThreshold is the per-tile solve duration above which a
	// warning is logged through Logger; 0 disables the warning.
	SlowTileThreshold time.Duration
	// ProgressNodes is the branch-and-bound node interval between solver
	// progress events; 0 means the ilp package default.
	ProgressNodes int
	// OnTile, when set, is called once per completed tile solve (from the
	// solve workers concurrently — the callback must be safe for concurrent
	// use). The live-progress hook pilfilld builds its streaming API on; nil
	// costs nothing.
	OnTile func(TileEvent)
}

// TileEvent describes one completed tile solve for Options.OnTile.
type TileEvent = core.TileEvent

func (o *Options) withDefaults() Options {
	out := *o
	if out.Rule == (layout.FillRule{}) {
		out.Rule = layout.FillRule{Feature: 400, Gap: 200, Buffer: 300}
	}
	if out.Def == 0 {
		out.Def = SlackColumnIII
	}
	if out.MaxDensity == 0 {
		out.MaxDensity = 0.7
	}
	return out
}

// Session is a prepared layout: dissection, density budget, slack columns
// and RC analyses, ready to run any number of placement methods for an
// apples-to-apples comparison. The Instances' curves are read-only: DeltaC
// in particular shares storage with the process-wide capacitance table
// cache, so a write through it would corrupt every later engine's tables.
type Session struct {
	Layout    *layout.Layout
	Engine    *core.Engine
	Grid      *density.Grid
	Budget    density.Budget
	Instances []*core.Instance
	Opts      Options
	// PrepTime is the session's total preparation wall time (dissection,
	// engine preprocessing, density budgeting); Engine.Prep breaks down the
	// engine's share by phase.
	PrepTime  time.Duration
	MinBefore float64
	MaxBefore float64
	// Target is the resolved minimum window density the budget aims for
	// (equals Options.TargetMinDensity, or the probed maximum when that
	// was zero).
	Target float64
}

// NewSession prepares a layout: it builds the dissection, analyzes the nets,
// extracts slack columns, and computes the per-tile fill budget that every
// subsequent Run places.
func NewSession(l *layout.Layout, opts Options) (*Session, error) {
	o := opts.withDefaults()
	start := time.Now()
	dis, err := layout.NewDissection(l.Die, o.Window, o.R)
	if err != nil {
		return nil, fmt.Errorf("pilfill: %w", err)
	}
	cfg := core.Config{
		Layer:         o.Layer,
		Def:           o.Def,
		Weighted:      o.Weighted,
		Seed:          o.Seed,
		NetCap:        o.NetCap,
		DualGapTol:    o.DualGapTol,
		Activity:      o.Activity,
		Workers:       o.Workers,
		Grounded:      o.Grounded,
		NoTableCache:  o.NoTableCache,
		NoSolveMemo:   o.NoSolveMemo,
		Trace:         o.Trace,
		Logger:        o.Logger,
		SlowTile:      o.SlowTileThreshold,
		ProgressNodes: o.ProgressNodes,
		OnTile:        o.OnTile,
	}
	if o.ILPNodeLimit > 0 {
		cfg.ILPOpts = ilp.Options{MaxNodes: o.ILPNodeLimit}
	}
	eng, err := core.NewEngine(l, dis, o.Rule, cfg)
	if err != nil {
		return nil, fmt.Errorf("pilfill: %w", err)
	}
	grid := density.NewGrid(l, dis, eng.Occ, o.Layer)
	target := o.TargetMinDensity
	if target <= 0 {
		best, err := density.MaxMinDensity(grid, o.MaxDensity, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("pilfill: %w", err)
		}
		target = best
	}
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{
		TargetMin:  target,
		MaxDensity: o.MaxDensity,
		Seed:       o.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("pilfill: %w", err)
	}
	minB, maxB := grid.Stats(nil)
	instances, err := eng.Instances(budget)
	if err != nil {
		return nil, fmt.Errorf("pilfill: %w", err)
	}
	s := &Session{
		Layout:    l,
		Engine:    eng,
		Grid:      grid,
		Budget:    budget,
		Instances: instances,
		Opts:      o,
		MinBefore: minB,
		MaxBefore: maxB,
		Target:    target,
	}
	s.PrepTime = time.Since(start)
	return s, nil
}

// Report is the outcome of one placement run.
type Report struct {
	Result    *core.Result
	MinBefore float64 // min window density before fill
	MaxBefore float64
	MinAfter  float64 // after this method's fill
	MaxAfter  float64
}

// Run places the session's budget with the given method.
func (s *Session) Run(m Method) (*Report, error) {
	return s.RunContext(context.Background(), m)
}

// RunContext is Run with cancellation: the context is checked at every tile
// boundary and inside the ILP branch-and-bound loops, so cancelling it (or
// letting its deadline expire) stops the solver work promptly. The returned
// error wraps ctx.Err(), so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) discriminate the cause.
func (s *Session) RunContext(ctx context.Context, m Method) (*Report, error) {
	res, err := s.Engine.RunContext(ctx, m, s.Instances)
	if err != nil {
		return nil, fmt.Errorf("pilfill: %w", err)
	}
	return s.report(res), nil
}

func (s *Session) report(res *core.Result) *Report {
	minA, maxA := s.Grid.StatsWithAreas(res.Fill.TileFillAreas(s.Engine.Dis))
	return &Report{
		Result:    res,
		MinBefore: s.MinBefore,
		MaxBefore: s.MaxBefore,
		MinAfter:  minA,
		MaxAfter:  maxA,
	}
}

// RunBudgeted places the session's budget with ILP-II under per-net delay
// budgets derived from baseline timing: each net may absorb slackFraction of
// its worst baseline Elmore sink delay (the paper's Section 7 "budgeted
// capacitance" flow). Tiles where the caps make the fill amount infeasible
// fall back to a budget-respecting greedy, so Placed may trail Requested.
func (s *Session) RunBudgeted(slackFraction float64) (*Report, error) {
	return s.RunBudgetedContext(context.Background(), slackFraction)
}

// RunBudgetedContext is RunBudgeted with cancellation, under the same
// contract as RunContext.
func (s *Session) RunBudgetedContext(ctx context.Context, slackFraction float64) (*Report, error) {
	if slackFraction < 0 {
		return nil, fmt.Errorf("pilfill: negative slack fraction %g", slackFraction)
	}
	budgets := s.Engine.NetBudgets(slackFraction, 1e-18)
	res, err := s.Engine.RunBudgetedContext(ctx, s.Instances, budgets)
	if err != nil {
		return nil, fmt.Errorf("pilfill: %w", err)
	}
	return s.report(res), nil
}

// RunMVDC solves the inverse formulation (minimum variation with delay
// constraint): every tile may add at most tileDelayBudget seconds of delay
// impact, and within that constraint the minimum window density is pushed
// toward the session's target. The session's precomputed fill budget is
// ignored; MVDC derives its own, delay-feasible one.
func (s *Session) RunMVDC(tileDelayBudget float64) (*Report, float64, error) {
	return s.RunMVDCContext(context.Background(), tileDelayBudget)
}

// RunMVDCContext is RunMVDC with cancellation, under the same contract as
// RunContext.
func (s *Session) RunMVDCContext(ctx context.Context, tileDelayBudget float64) (*Report, float64, error) {
	r, err := s.Engine.RunMVDCContext(ctx, s.Grid, tileDelayBudget, s.Target, s.Opts.withDefaults().MaxDensity)
	if err != nil {
		return nil, 0, fmt.Errorf("pilfill: %w", err)
	}
	return s.report(r.Result), r.AchievedMin, nil
}

// Smoothness returns the maximum adjacent-window density difference (the
// uniformity metric of the paper's reference [4]) before fill and after the
// given report's fill.
func (s *Session) Smoothness(rep *Report) (before, after float64) {
	before = s.Grid.Smoothness(nil)
	// Convert the placed fill to a per-tile budget-equivalent by areas.
	areas := rep.Result.Fill.TileFillAreas(s.Engine.Dis)
	// Reuse StatsWithAreas-style accounting via a temporary budget in
	// feature units (areas are exact multiples of the feature area when the
	// site pitch divides the tile size; otherwise this is a close rounding).
	fa := s.Grid.FeatureArea
	b := s.Grid.NewBudget()
	for i := range areas {
		for j := range areas[i] {
			b[i][j] = int((areas[i][j] + fa/2) / fa)
		}
	}
	after = s.Grid.Smoothness(b)
	return before, after
}

// Summary renders the report in a compact human-readable form. Delay totals
// are shown in picoseconds. The solve figure is solver-only CPU (summed over
// instances, comparable across Workers settings); wall is the end-to-end
// duration of the run.
func (r *Report) Summary() string {
	var b strings.Builder
	res := r.Result
	fmt.Fprintf(&b, "%-8s placed %d/%d fill features in %d tiles (solve %.0f ms, wall %.0f ms)\n",
		res.Method, res.Placed, res.Requested, res.Tiles,
		float64(res.CPU)/1e6, float64(res.Wall)/1e6)
	fmt.Fprintf(&b, "  delay impact: %.4f ps unweighted, %.4f ps weighted\n",
		res.Unweighted*1e12, res.Weighted*1e12)
	fmt.Fprintf(&b, "  window density: [%.4f, %.4f] -> [%.4f, %.4f]\n",
		r.MinBefore, r.MaxBefore, r.MinAfter, r.MaxAfter)
	return b.String()
}

// CacheStats snapshots the engine's capacitance-table cache counters; zero
// when Options.NoTableCache was set. The default cache is process-wide, so
// sessions sharing it see cumulative figures.
func (s *Session) CacheStats() cap.CacheStats { return s.Engine.CacheStats() }

// MemoStats snapshots the engine's tile-solve memo counters; zero when
// Options.NoSolveMemo was set. The default memo is process-wide, so sessions
// sharing it see cumulative figures.
func (s *Session) MemoStats() core.MemoStats { return s.Engine.MemoStats() }

// GenerateT1 builds the dense synthetic testcase (the stand-in for the
// paper's industry design T1).
func GenerateT1() (*layout.Layout, error) { return testcases.Generate(testcases.T1()) }

// GenerateT2 builds the sparse synthetic testcase (stand-in for T2).
func GenerateT2() (*layout.Layout, error) { return testcases.Generate(testcases.T2()) }

// DefaultRuleT1T2 is the fill design rule the synthetic testcases assume.
func DefaultRuleT1T2() layout.FillRule { return testcases.T1().Rule }

// LoadDEF reads a layout from the DEF-subset dialect (see internal/def).
// The file must carry its own inline LAYERS section; for standard LEF/DEF
// pairs use LoadLEFDEF.
func LoadDEF(r io.Reader) (*layout.Layout, error) {
	l, _, err := def.Parse(r)
	return l, err
}

// LoadLEFDEF reads a standard LEF/DEF pair: routing-layer definitions from
// the LEF, die/nets/routes from the DEF (whose inline LAYERS section becomes
// optional).
func LoadLEFDEF(lefR, defR io.Reader) (*layout.Layout, error) {
	lib, err := lef.Parse(lefR)
	if err != nil {
		return nil, err
	}
	l, _, err := def.ParseWith(defR, lib.LayoutLayers())
	return l, err
}

// SaveDEF writes a layout, optionally with a fill set, in the DEF subset.
func SaveDEF(w io.Writer, l *layout.Layout, fill *layout.FillSet) error {
	if fill == nil {
		return def.Write(w, l)
	}
	return def.WriteWithFill(w, l, def.FillRects(fill))
}

// SaveGDS writes the layout's drawn geometry plus fill as a GDSII stream.
// Wires go to their layer index, fill features to layer index + fillOffset
// (use 0 to merge fill onto the wire layer).
func SaveGDS(w io.Writer, l *layout.Layout, fill *layout.FillSet, fillOffset int16) error {
	lib := &gds.Library{Name: l.Name, StructName: strings.ToUpper(l.Name)}
	for _, n := range l.Nets {
		for _, s := range n.Segments {
			lib.Shapes = append(lib.Shapes, gds.Shape{Layer: int16(s.Layer), Rect: s.Rect()})
		}
	}
	if fill != nil {
		for _, f := range fill.Fills {
			lib.Shapes = append(lib.Shapes, gds.Shape{
				Layer:    int16(fill.Layer) + fillOffset,
				Datatype: 1,
				Rect:     fill.Grid.SiteRect(f.Col, f.Row),
			})
		}
	}
	return gds.Write(w, lib)
}

// Process returns the default electrical model used by the library.
func Process() cap.Process { return cap.Default130 }

// TransposeFill maps fill computed on a transposed layout (the vertical-
// layer workflow: l.Transpose() -> NewSession with the now-horizontal layer
// -> Run -> TransposeFill) back to the original orientation.
func TransposeFill(fs *layout.FillSet, originalDie geom.Rect, rule layout.FillRule) (*layout.FillSet, error) {
	return layout.TransposeFill(fs, originalDie, rule)
}

// Verify runs the fill DRC on a report's placement: geometry and buffer
// rules always, plus window-density bounds against the session's target.
// A clean result returns an empty slice.
func (s *Session) Verify(rep *Report) []drc.Violation {
	return drc.CheckFill(s.Layout, rep.Result.Fill, s.Opts.Rule, s.Engine.Dis, drc.Options{
		MaxDensity:    s.Opts.withDefaults().MaxDensity,
		MaxViolations: 100,
	})
}

// SaveSVG renders the layout (with optional fill and the session's tile
// grid) as an SVG image for visual inspection.
func (s *Session) SaveSVG(w io.Writer, fill *layout.FillSet) error {
	return svg.Write(w, s.Layout, fill, svg.Options{ShowTiles: s.Engine.Dis})
}

// TimingReport recomputes the fill's per-net delay impact from the placed
// geometry (independently of the optimizer's bookkeeping) and returns the
// signoff-style report. Because the checker merges fill runs across tile
// boundaries where the optimizer accounted per tile, its totals are an
// upper bound on (and normally very close to) the engine's.
func (s *Session) TimingReport(rep *Report) (*timing.Report, error) {
	return timing.Analyze(s.Layout, rep.Result.Fill, s.Opts.Rule, s.Engine.Cfg.Proc)
}

// generateT3 builds the internal large stress testcase (used by scale tests
// and cmd/layoutgen; not part of the paper's grid).
func generateT3() (*layout.Layout, error) { return testcases.Generate(testcases.T3()) }

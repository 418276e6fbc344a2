package core

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"slices"
	"sync"
	"time"

	"pilfill/internal/cap"
	"pilfill/internal/density"
	"pilfill/internal/ilp"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
	"pilfill/internal/par"
	"pilfill/internal/rc"
	"pilfill/internal/scanline"
)

// Method selects a PIL-Fill placement algorithm.
type Method int

// Placement methods. Normal is the density-only baseline; Greedy, ILPI and
// ILPII are the paper's three approaches; DP, MarginalGreedy, GreedyCapped
// and DualAscent are this implementation's extensions (exact reference,
// provably-optimal greedy, the footnote's bounded-net-delay variant, and the
// certificate-checked Lagrangian exact solver — ILP-II's optimum without its
// branch-and-bound on most tiles, see dual.go).
const (
	Normal Method = iota
	Greedy
	ILPI
	ILPII
	DP
	MarginalGreedy
	GreedyCapped
	DualAscent
)

// String names the method as in the paper's tables.
func (m Method) String() string {
	switch m {
	case Normal:
		return "Normal"
	case Greedy:
		return "Greedy"
	case ILPI:
		return "ILP-I"
	case ILPII:
		return "ILP-II"
	case DP:
		return "DP"
	case MarginalGreedy:
		return "MarginalGreedy"
	case GreedyCapped:
		return "GreedyCapped"
	case DualAscent:
		return "DualAscent"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Config parameterizes an Engine.
type Config struct {
	Layer    int          // routing layer to fill
	Def      scanline.Def // slack-column definition (0 = DefIII)
	Weighted bool         // optimize the sink-weighted objective
	Proc     cap.Process  // electrical model (zero value = cap.Default130)
	ILPOpts  ilp.Options  // branch-and-bound limits
	Seed     int64        // randomness for the Normal baseline
	// NetCap bounds each net's added delay per tile for the capped methods,
	// in seconds (interconnect deltas are femtoseconds, far below what
	// time.Duration can represent). 0 disables the bound.
	NetCap float64
	// DualGapTol is the DualAscent certificate's relative duality-gap
	// acceptance threshold; 0 selects DualGapTolDefault (1e-9). Assignments
	// whose gap exceeds it fall back to branch-and-bound, so loosening the
	// knob trades certainty for speed only through the fallback rate, never
	// through accepted-but-unproven results beyond the threshold.
	DualGapTol float64
	// Activity optionally holds per-net switching activities in [0, 1] for
	// crosstalk-aware costing (after Kahng/Muddu/Sarto's switch factors):
	// the coupling a column adds to a victim line is scaled by
	// 1 + activity(aggressor), the expected Miller factor. Nil means all
	// aggressors quiet (factor 1, the paper's model).
	Activity []float64
	// Workers solves tile instances concurrently when > 1. Results are
	// bit-identical to the serial run: tiles are independent, the Normal
	// baseline derives its randomness per tile from (Seed, I, J), and the
	// reduction happens in instance order.
	Workers int
	// TileOffI/TileOffJ translate this engine's tile indices to a containing
	// chip's tile grid for the Normal baseline's per-tile seed derivation, so
	// a sharded region run reproduces the whole-chip run's randomness
	// tile-for-tile (internal/shard sets them; zero means the engine's grid
	// is the chip's). They affect nothing but Normal's per-tile RNG seeds.
	TileOffI, TileOffJ int
	// NoSolvePool disables the per-worker SolveScratch pooling and the
	// assignment slab, restoring the pre-pooling per-tile allocation
	// behavior. Results are bit-identical either way; the switch exists so
	// benchmarks (cmd/benchengine) and the pooling-equivalence tests can
	// compare the two paths.
	NoSolvePool bool
	// Grounded models tied-to-ground fill instead of the paper's floating
	// fill: heavier capacitive loading (cap.DeltaGrounded) in exchange for
	// crosstalk shielding. Note the grounded cost curve has a step at the
	// first feature, so MarginalGreedy (and the MVDC frontier built on it)
	// loses its optimality guarantee and becomes a heuristic; DP and ILP-II
	// remain exact.
	Grounded bool
	// Cache overrides the capacitance-table cache used during instance
	// construction; nil selects cap.Shared, the process-wide cache that
	// reuses tables across columns, tiles, and sessions.
	Cache *cap.TableCache
	// NoTableCache disables table memoization entirely (every column builds
	// its own table, the pre-cache behavior); used by benchmarks and the
	// cache-correctness tests.
	NoTableCache bool
	// Memo overrides the solve memo consulted before each tile solve; nil
	// selects SharedSolveMemo, the process-wide memo that reuses solved tile
	// patterns across runs and sessions. Results are bit-identical with the
	// memo on or off (see memo.go); only the work to produce them changes.
	Memo *SolveMemo
	// NoSolveMemo disables tile-solve memoization entirely (every tile is
	// solved from scratch, the pre-memo behavior); used by benchmarks — the
	// pooled-vs-unpooled allocation comparisons would otherwise measure memo
	// hits — and the memo-correctness tests.
	NoSolveMemo bool
	// Trace optionally records hierarchical spans (prep → analyze/extract,
	// run → tile → solve, ilp progress instants) into the observability
	// layer's ring buffer. A nil tracer is free: every span call is an
	// allocation-free no-op, so leaving this unset costs nothing on the
	// solve path.
	Trace *obs.Tracer
	// Logger receives structured solve-path logs: slow-tile warnings (see
	// SlowTile) at Warn, ILP solver progress at Debug. Nil disables logging.
	Logger *slog.Logger
	// SlowTile is the per-tile solve duration above which a warning is
	// logged (requires Logger). 0 disables the slow-tile warning.
	SlowTile time.Duration
	// ProgressNodes is the branch-and-bound node interval between solver
	// progress events (trace instants and Debug logs); 0 means
	// ilp.DefaultProgressEvery. Progress is only wired up when Trace is
	// enabled or Logger logs at Debug, so the default costs nothing.
	ProgressNodes int
	// OnTile, when set, is called once per successfully solved tile as the
	// solve completes — the live-progress feed for the serving layer. It is
	// invoked from the solve workers concurrently, so the callback must be
	// safe for concurrent use; nil costs nothing.
	OnTile func(TileEvent)
}

// TileEvent describes one completed tile solve for Config.OnTile. I/J are
// chip-grid tile coordinates (the engine's indices shifted by
// TileOffI/TileOffJ), so region shards report positions consistent with the
// whole-chip run.
type TileEvent struct {
	I, J         int
	MemoHit      bool
	DualFallback bool
	Nodes        int
	LPPivots     int
	Dur          time.Duration
}

// PrepStats breaks down the engine's preprocessing wall time. Analyze and
// Build fan out across Config.Workers; the split lets benchmarks attribute
// preprocessing cost the same way the paper's tables attribute solver CPU.
type PrepStats struct {
	Analyze time.Duration // RC analysis of every net
	Extract time.Duration // slack-column extraction
	Build   time.Duration // instance construction (accumulated by Instances)
	Total   time.Duration // everything above plus grid/occupancy setup
}

// Engine holds the per-layout preprocessing shared by all methods: RC
// analyses of every net and the slack-column extraction.
type Engine struct {
	L        *layout.Layout
	Dis      *layout.Dissection
	Grid     *layout.SiteGrid
	Occ      *layout.Occupancy
	Rule     layout.FillRule
	Cfg      Config
	Analyses []*rc.Analysis
	Tiles    [][]scanline.TileColumns
	// Prep records where the preprocessing wall time went (Build grows with
	// each Instances call).
	Prep PrepStats

	cache    *cap.TableCache // nil when Config.NoTableCache
	memo     *SolveMemo      // nil when Config.NoSolveMemo
	prepSpan obs.SpanID      // the "prep" span, parent of later build spans

	// scratchFree pools worker SolveScratches across runs (see
	// getScratches); guarded by scratchMu so concurrent RunContexts on one
	// engine each borrow disjoint scratches.
	scratchMu   sync.Mutex
	scratchFree []*SolveScratch
}

// predictCost scores a tile's expected solve cost for scheduling: the
// ILP-II variable count (Σ per-column curve lengths) dominates branch-and-
// bound work, scaled by the fill budget; the column count stands in for the
// heuristic methods' sort/heap work. Only the relative order matters — the
// score picks which tiles start first, never what any solver computes.
func predictCost(in *Instance) float64 {
	curve := 0
	for k := range in.Columns {
		curve += len(in.Columns[k].DeltaC)
	}
	return (float64(curve) + float64(len(in.Columns))) * float64(in.F+1)
}

// costOrder returns tile indices in descending predicted-cost order (index
// ascending on ties): longest-processing-time-first scheduling, which keeps
// a straggler tile from landing on a nearly-drained queue and stretching the
// run's makespan past the CPU-time lower bound.
func costOrder(instances []*Instance) []int {
	order := make([]int, len(instances))
	cost := make([]float64, len(instances))
	for i, in := range instances {
		order[i] = i
		cost[i] = predictCost(in)
	}
	slices.SortFunc(order, func(a, b int) int {
		if cost[a] != cost[b] {
			if cost[a] > cost[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	return order
}

// NewEngine prepares a layout for fill synthesis: site grid, occupancy, RC
// analysis of every net, and slack-column extraction under the configured
// definition. With Config.Workers > 1 the per-net RC analyses run
// concurrently; the result is identical to the serial build.
func NewEngine(l *layout.Layout, dis *layout.Dissection, rule layout.FillRule, cfg Config) (*Engine, error) {
	start := time.Now()
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Def == 0 {
		cfg.Def = scanline.DefIII
	}
	if cfg.Proc == (cap.Process{}) {
		cfg.Proc = cap.Default130
	}
	if err := cfg.Proc.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	grid, err := layout.NewSiteGrid(l.Die, rule)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	occ := layout.NewOccupancy(l, grid, cfg.Layer)

	prep := cfg.Trace.Start("phase", "prep", 0, 0)
	prep.Arg("nets", int64(len(l.Nets)))

	analyzeStart := time.Now()
	analyzeSpan := cfg.Trace.Start("phase", "analyze", 0, prep.ID())
	analyses := make([]*rc.Analysis, len(l.Nets))
	errs := make([]error, len(l.Nets))
	par.For(cfg.Workers, len(l.Nets), nil, func(_, i int) {
		analyses[i], errs[i] = rc.Analyze(l.Nets[i], cfg.Proc)
	})
	analyzeSpan.End()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: net %q: %w", l.Nets[i].Name, err)
		}
	}
	analyzeDur := time.Since(analyzeStart)

	extractStart := time.Now()
	extractSpan := cfg.Trace.Start("phase", "extract", 0, prep.ID())
	tiles, err := scanline.Extract(l, cfg.Layer, dis, occ, cfg.Def, cfg.Workers)
	extractSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine{
		L: l, Dis: dis, Grid: grid, Occ: occ, Rule: rule, Cfg: cfg,
		Analyses: analyses, Tiles: tiles,
		prepSpan: prep.ID(),
	}
	e.Prep.Analyze = analyzeDur
	e.Prep.Extract = time.Since(extractStart)
	e.Prep.Total = time.Since(start)
	prep.End()
	if !cfg.NoTableCache {
		e.cache = cfg.Cache
		if e.cache == nil {
			e.cache = cap.Shared
		}
	}
	if !cfg.NoSolveMemo {
		e.memo = cfg.Memo
		if e.memo == nil {
			e.memo = SharedSolveMemo
		}
	}
	return e, nil
}

// MemoStats snapshots the engine's solve-memo counters (zero when the memo
// is disabled). Note the default memo is process-wide, so the counters span
// every engine sharing it.
func (e *Engine) MemoStats() MemoStats {
	if e.memo == nil {
		return MemoStats{}
	}
	return e.memo.Stats()
}

// CacheStats snapshots the engine's capacitance-table cache counters (zero
// when caching is disabled). Note the default cache is process-wide, so the
// counters span every engine sharing it.
func (e *Engine) CacheStats() cap.CacheStats {
	if e.cache == nil {
		return cap.CacheStats{}
	}
	return e.cache.Stats()
}

// Instances builds the per-tile MDFC instances for a fill budget. Tiles with
// a zero budget produce no instance. Budgets exceeding a tile's slack-column
// capacity are clamped (the difference is reported by Result.Requested vs
// Placed after a Run). With Config.Workers > 1 the tiles are built
// concurrently; the instance list is identical to the serial build. A
// capacitance table that cannot cover a column's extracted capacity is an
// extraction bug and surfaces as an error (lowest tile first).
func (e *Engine) Instances(budget density.Budget) ([]*Instance, error) {
	start := time.Now()
	build := e.Cfg.Trace.Start("phase", "build", 0, e.prepSpan)
	type slot struct{ i, j, want int }
	var slots []slot
	for i := 0; i < e.Dis.NX; i++ {
		for j := 0; j < e.Dis.NY; j++ {
			if want := budget[i][j]; want > 0 {
				slots = append(slots, slot{i, j, want})
			}
		}
	}
	built := make([]*Instance, len(slots))
	errs := make([]error, len(slots))
	par.For(e.Cfg.Workers, len(slots), nil, func(_, s int) {
		built[s], errs[s] = e.buildInstance(slots[s].i, slots[s].j, slots[s].want)
	})
	for _, err := range errs {
		if err != nil {
			build.End()
			return nil, err
		}
	}
	out := built[:0]
	for _, in := range built {
		if len(in.Columns) > 0 {
			out = append(out, in)
		}
	}
	dur := time.Since(start)
	e.Prep.Build += dur
	e.Prep.Total += dur
	build.Arg("instances", int64(len(out)))
	build.End()
	return out, nil
}

// PhaseTimes breaks a run's cost into phases so CPU comparisons isolate the
// solver (the quantity the paper's tables report) from everything around it.
type PhaseTimes struct {
	// Preprocess is the engine's preprocessing total (RC analysis, slack
	// extraction, instance construction) at the time of the run — shared by
	// every run on the engine, reported here for a complete breakdown.
	Preprocess time.Duration
	Solve      time.Duration // summed per-instance solver durations (== Result.CPU)
	Evaluate   time.Duration // assignment evaluation + per-net accounting
	Place      time.Duration // fill materialization
}

// Result reports one method's placement and its measured impact.
type Result struct {
	Method     Method
	Fill       *layout.FillSet
	Requested  int       // total features the budget asked for
	Placed     int       // features actually placed
	Unweighted float64   // measured Σ ΔC·R over all lines, seconds
	Weighted   float64   // measured Σ W_l·ΔC·R, seconds
	PerNet     []float64 // unweighted added delay per net, seconds
	// CPU is solver-only time: the sum of per-instance solve durations, so
	// serial and Workers>1 runs report comparable numbers. Wall is the
	// end-to-end duration of the Run call (under Workers>1 it is smaller
	// than CPU when tiles overlap).
	CPU  time.Duration
	Wall time.Duration
	// LongestSolve is the single slowest tile's solve duration — with CPU
	// and the worker count it bounds the best achievable makespan:
	// Wall >= max(CPU/workers, LongestSolve) + reduction overhead.
	LongestSolve time.Duration
	Phases       PhaseTimes // preprocess/solve/evaluate/place breakdown
	Tiles        int        // instances solved
	ILPNodes     int        // total branch-and-bound nodes (ILP methods)
	LPPivots     int        // total simplex pivots across all node LPs (ILP methods)
	// MemoHits/MemoMisses count tile solves served from (or stored into) the
	// solve memo this run. With concurrent workers two tiles of the same
	// pattern may race past the lookup and both solve, so the split between
	// hits and misses can vary run to run — unlike every field above, which
	// stays bit-identical regardless of memoization, pooling, or workers.
	MemoHits   int
	MemoMisses int
	// IncumbentsRepaired/IncumbentsDropped count ILP-II warm-start incumbents
	// that had to be repaired against per-net delay-cap rows, and ones no
	// repair could save (the search then starts cold). Always zero when no
	// net cap is configured.
	IncumbentsRepaired int
	IncumbentsDropped  int
	// DualFallbacks counts DualAscent tiles whose optimality certificate did
	// not close (duality gap above Config.DualGapTol, or a per-net cap
	// violated by the certified assignment) and that were re-solved by
	// branch-and-bound. Always zero for other methods.
	DualFallbacks int
	// SlowestTiles holds the top slowest tile solves (at most
	// MaxSlowestTiles, slowest first) with chip-grid coordinates — the per-
	// region slice of the cluster-wide "which tiles ate the time" table.
	// Durations are wall-clock measurements, so the membership and order can
	// vary run to run; every other Result field stays bit-identical.
	SlowestTiles []TileTime
}

// MaxSlowestTiles caps Result.SlowestTiles.
const MaxSlowestTiles = 8

// TileTime is one entry of Result.SlowestTiles: a tile's chip-grid position,
// its solve duration, and the branch-and-bound effort behind it.
type TileTime struct {
	I, J  int
	Dur   time.Duration
	Nodes int
}

// solveStats carries one tile solve's deterministic by-products: search
// effort and warm-start repair outcomes. Memo entries replay them so memo-on
// and memo-off runs accumulate identical Results.
type solveStats struct {
	nodes, pivots           int
	incRepaired, incDropped bool
	dualFallback            bool
}

// ilpOpts copies the configured branch-and-bound limits and, when the
// context is cancellable, adds a per-node cancellation poll so an in-flight
// ILP solve stops promptly instead of running to its node limit.
func (e *Engine) ilpOpts(ctx context.Context) *ilp.Options {
	opts := e.Cfg.ILPOpts
	if ctx.Done() != nil {
		opts.Cancel = func() bool { return ctx.Err() != nil }
	}
	return &opts
}

// addProgress wires the observability hook into opts: when tracing is on or
// the logger accepts Debug, the branch-and-bound search reports progress
// every Config.ProgressNodes nodes as trace instants under the tile's span
// and as Debug logs. Otherwise opts is untouched, so the common case pays
// nothing (the hook closure allocates; it only exists on observed runs).
func (e *Engine) addProgress(ctx context.Context, opts *ilp.Options, in *Instance, lane int, parent obs.SpanID) {
	tr := e.Cfg.Trace
	lg := e.Cfg.Logger
	if lg != nil && !lg.Enabled(ctx, slog.LevelDebug) {
		lg = nil
	}
	if !tr.Enabled() && lg == nil {
		return
	}
	i, j := in.I, in.J
	opts.ProgressEvery = e.Cfg.ProgressNodes
	opts.Progress = func(pr ilp.Progress) {
		if tr.Enabled() {
			tr.Instant("ilp", "progress", lane, parent,
				obs.Arg{Name: "nodes", Value: int64(pr.Nodes)},
				obs.Arg{Name: "pivots", Value: int64(pr.LPPivots)})
		}
		if lg != nil {
			lg.Debug("ilp progress", "i", i, "j", j,
				"nodes", pr.Nodes, "pivots", pr.LPPivots, "open", pr.Open,
				"incumbent", pr.Incumbent, "hasIncumbent", pr.HasIncumbent,
				"bound", pr.Bound, "done", pr.Done)
		}
	}
}

// solveOpts is ilpOpts plus addProgress — the per-tile options of the
// unpooled solve path.
func (e *Engine) solveOpts(ctx context.Context, in *Instance, lane int, parent obs.SpanID) *ilp.Options {
	opts := e.ilpOpts(ctx)
	e.addProgress(ctx, opts, in, lane, parent)
	return opts
}

// normalSeed derives the Normal baseline's per-tile RNG seed from the tile's
// chip-grid position (local index plus Config.TileOffI/J), so sharded region
// engines draw the same randomness for a tile as the whole-chip engine.
func (e *Engine) normalSeed(in *Instance) int64 {
	i, j := int64(in.I+e.Cfg.TileOffI), int64(in.J+e.Cfg.TileOffJ)
	return e.Cfg.Seed ^ (i*1_000_003+j)*2_654_435_761
}

// solveInstance dispatches one tile to the chosen solver. The Normal
// baseline derives its randomness from (Seed, I, J) so tiles can be solved
// in any order — or concurrently — with identical results. A cancelled
// context surfaces as the context's error; for the ILP methods the
// branch-and-bound search itself is interrupted mid-tile.
func (e *Engine) solveInstance(ctx context.Context, method Method, in *Instance, lane int, span obs.SpanID) (Assignment, solveStats, error) {
	var st solveStats
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	switch method {
	case Normal:
		return SolveNormal(in, rand.New(rand.NewSource(e.normalSeed(in)))), st, nil
	case Greedy:
		return SolveGreedy(in), st, nil
	case MarginalGreedy:
		return SolveMarginalGreedy(in), st, nil
	case GreedyCapped:
		return e.solveGreedyCapped(in), st, nil
	case DP:
		a, err := SolveDPContext(ctx, in)
		return a, st, err
	case ILPI:
		a, sol, err := SolveILPI(in, e.solveOpts(ctx, in, lane, span))
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, solveStats{}, ctxErr
		}
		if sol != nil {
			st.nodes, st.pivots = sol.Nodes, sol.LPPivots
		}
		return a, st, err
	case ILPII:
		var nc *NetCap
		if e.Cfg.NetCap > 0 {
			nc = &NetCap{MaxAddedDelay: e.Cfg.NetCap}
		}
		a, sol, g, err := solveILPIIFull(in, e.solveOpts(ctx, in, lane, span), nc)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, solveStats{}, ctxErr
		}
		if sol != nil {
			st.nodes, st.pivots = sol.Nodes, sol.LPPivots
		}
		if g != nil {
			st.incRepaired, st.incDropped = g.IncumbentRepaired, g.IncumbentDropped
		}
		return a, st, err
	case DualAscent:
		var nc *NetCap
		if e.Cfg.NetCap > 0 {
			nc = &NetCap{MaxAddedDelay: e.Cfg.NetCap}
		}
		a, _, st, err := solveDualFull(ctx, in, e.solveOpts(ctx, in, lane, span), nc, e.dualGapTol())
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, solveStats{}, ctxErr
		}
		return a, st, err
	default:
		return nil, st, fmt.Errorf("core: unknown method %v", method)
	}
}

// solveInstancePooled is solveInstance on the steady-state path: the
// assignment lands in the caller's zeroed slab slice and every intermediate
// (problem, incumbent, searcher nodes, sampler state) comes from the
// worker's SolveScratch. base carries the run-wide ILP options (including
// the hoisted Cancel closure) and nc the run-wide net cap; both are read-
// only here. Results are bit-identical to solveInstance.
func (e *Engine) solveInstancePooled(ctx context.Context, method Method, in *Instance, sc *SolveScratch,
	base *ilp.Options, nc *NetCap, a Assignment, lane int, span obs.SpanID) (solveStats, error) {
	var st solveStats
	if err := ctx.Err(); err != nil {
		return st, err
	}
	switch method {
	case Normal:
		// Re-seeding reinitializes the rng's source exactly as
		// rand.NewSource(seed) would, so the pooled sampler reproduces the
		// unpooled per-tile rand.New sequence bit for bit.
		sc.rng.Seed(e.normalSeed(in))
		sc.slots = solveNormalInto(a, in, sc.rng, sc.slots)
		return st, nil
	case Greedy:
		sc.keys = solveGreedyInto(a, in, sc.keys)
		return st, nil
	case MarginalGreedy:
		solveMarginalGreedyInto(a, in, &sc.mheap)
		return st, nil
	case GreedyCapped:
		e.solveGreedyCappedInto(a, in, sc)
		return st, nil
	case DP:
		return st, solveDPInto(ctx, a, in, sc)
	case ILPI:
		sc.opts = *base
		e.addProgress(ctx, &sc.opts, in, lane, span)
		nodes, pivots, err := sc.solveILPI(in, &sc.opts, a)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return solveStats{}, ctxErr
		}
		st.nodes, st.pivots = nodes, pivots
		return st, err
	case ILPII:
		sc.opts = *base
		e.addProgress(ctx, &sc.opts, in, lane, span)
		st, err := sc.solveILPII(in, &sc.opts, nc, a)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return solveStats{}, ctxErr
		}
		return st, err
	case DualAscent:
		sc.opts = *base
		e.addProgress(ctx, &sc.opts, in, lane, span)
		st, err := sc.solveDual(ctx, in, &sc.opts, nc, e.dualGapTol(), a)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return solveStats{}, ctxErr
		}
		return st, err
	default:
		return st, fmt.Errorf("core: unknown method %v", method)
	}
}

// Run solves every instance with the chosen method and assembles the fill.
// The instances must come from this engine's Instances call. With
// Config.Workers > 1 the tiles are solved concurrently; the result is
// identical to the serial run.
func (e *Engine) Run(method Method, instances []*Instance) (*Result, error) {
	return e.RunContext(context.Background(), method, instances)
}

// RunContext is Run with cancellation: the context is checked at every tile
// boundary (and, for the ILP methods, per branch-and-bound node), so a
// cancelled or deadline-expired context stops the remaining solver work and
// returns an error wrapping ctx.Err(). A partially solved run yields no
// partial Result.
func (e *Engine) RunContext(ctx context.Context, method Method, instances []*Instance) (*Result, error) {
	// Σ F bounds the features placed, so the fill list never regrows.
	features := 0
	for _, in := range instances {
		features += in.F
	}
	res := &Result{
		Method: method,
		Fill: &layout.FillSet{Grid: e.Grid, Layer: e.Cfg.Layer,
			Fills: make([]layout.Fill, 0, features)},
		PerNet: make([]float64, len(e.L.Nets)),
	}
	start := time.Now()
	tr := e.Cfg.Trace
	run := tr.Start("phase", "run", 0, 0)
	run.Arg("method", int64(method))
	run.Arg("tiles", int64(len(instances)))
	defer run.End()

	type outcome struct {
		a       Assignment
		st      solveStats
		memoHit bool
		dur     time.Duration // this instance's solve time
		err     error
	}
	outs := make([]outcome, len(instances))

	pooled := !e.Cfg.NoSolvePool
	memo := e.memo
	if memo != nil && !memoizable(method, &e.Cfg.ILPOpts) {
		memo = nil
	}
	workers := par.Workers(e.Cfg.Workers, len(instances))
	var scs []*SolveScratch
	var baseOpts ilp.Options
	var nc *NetCap
	if pooled {
		// One zeroed slab carved into per-tile assignment slices: a single
		// allocation per run instead of one per tile.
		totalCols := 0
		for _, in := range instances {
			totalCols += len(in.Columns)
		}
		slab := make([]int, totalCols)
		off := 0
		for i, in := range instances {
			k := len(in.Columns)
			outs[i].a = slab[off : off+k : off+k]
			off += k
		}
		scs = e.getScratches(workers)
		defer e.putScratches(scs)
		baseOpts = e.Cfg.ILPOpts
		if ctx.Done() != nil {
			// One cancellation closure for the whole run, not one per tile.
			baseOpts.Cancel = func() bool { return ctx.Err() != nil }
		}
		if e.Cfg.NetCap > 0 {
			nc = &NetCap{MaxAddedDelay: e.Cfg.NetCap}
		}
	}
	fc := e.fingerprintConfig(method)
	solveOne := func(worker, i int) {
		in := instances[i]
		lane := 1 + worker
		tile := tr.Start("tile", "tile", lane, run.ID())
		tile.Arg("i", int64(in.I))
		tile.Arg("j", int64(in.J))
		solveStart := time.Now()
		solve := tr.Start("solve", "solve", lane, tile.ID())
		var st solveStats
		var err error
		hit := false
		var key memoKey
		if memo != nil {
			// Fingerprint buffers come from the worker's scratch on the
			// pooled path; the unpooled path allocates per tile (it exists
			// for benchmarks and equivalence tests, not steady state).
			var buf []byte
			var netBuf []int
			if pooled {
				buf, netBuf = scs[worker].fpBuf, scs[worker].fpNets
			}
			key, buf, netBuf = fingerprintInstance(buf, netBuf, in, fc)
			if pooled {
				scs[worker].fpBuf, scs[worker].fpNets = buf, netBuf
			}
			if ent := memo.lookup(key); ent != nil {
				// Replay the cached solve: the assignment bytes and every
				// deterministic by-product match what a fresh solve of this
				// pattern produces, so downstream accounting is bit-identical.
				if pooled {
					copy(outs[i].a, ent.a)
				} else {
					outs[i].a = append([]int(nil), ent.a...)
				}
				st = solveStats{nodes: ent.nodes, pivots: ent.pivots,
					incRepaired: ent.incRepaired, incDropped: ent.incDropped,
					dualFallback: ent.dualFallback}
				hit = true
			}
		}
		if !hit {
			if pooled {
				st, err = e.solveInstancePooled(ctx, method, in, scs[worker],
					&baseOpts, nc, outs[i].a, lane, solve.ID())
			} else {
				outs[i].a, st, err = e.solveInstance(ctx, method, in, lane, solve.ID())
			}
			if memo != nil && err == nil {
				memo.store(key, outs[i].a, st)
			}
		}
		solve.Arg("nodes", int64(st.nodes))
		solve.Arg("pivots", int64(st.pivots))
		solve.End()
		dur := time.Since(solveStart)
		tile.End()
		outs[i].st, outs[i].memoHit, outs[i].dur, outs[i].err = st, hit, dur, err
		if lg := e.Cfg.Logger; lg != nil && err == nil &&
			e.Cfg.SlowTile > 0 && dur >= e.Cfg.SlowTile {
			lg.Warn("slow tile", "i", in.I, "j", in.J, "method", method.String(),
				"dur", dur, "nodes", st.nodes, "pivots", st.pivots)
		}
		if cb := e.Cfg.OnTile; cb != nil && err == nil {
			cb(TileEvent{
				I: in.I + e.Cfg.TileOffI, J: in.J + e.Cfg.TileOffJ,
				MemoHit: hit, DualFallback: st.dualFallback,
				Nodes: st.nodes, LPPivots: st.pivots, Dur: dur,
			})
		}
	}
	if workers > 1 {
		// Hardest tiles first (LPT): the predicted-cost order only decides
		// who starts when — each tile's solve and the reduction below are
		// order-independent, so results stay bit-identical to serial.
		par.For(workers, len(instances), costOrder(instances), solveOne)
	} else {
		for i := range instances {
			solveOne(0, i)
		}
	}

	// Deterministic reduction in instance order: regardless of how the
	// fan-out interleaved or reordered the solves above, every accumulation
	// below walks instances[0..n) in sequence, so serial, parallel, and
	// pooled runs produce bit-identical Results.
	var placeRows []int
	for i, in := range instances {
		o := outs[i]
		if o.err != nil {
			return nil, fmt.Errorf("core: tile (%d,%d): %w", in.I, in.J, o.err)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %v run interrupted: %w", method, err)
		}
		res.ILPNodes += o.st.nodes
		res.LPPivots += o.st.pivots
		if memo != nil {
			if o.memoHit {
				res.MemoHits++
			} else {
				res.MemoMisses++
			}
		}
		if o.st.incRepaired {
			res.IncumbentsRepaired++
		}
		if o.st.incDropped {
			res.IncumbentsDropped++
		}
		if o.st.dualFallback {
			res.DualFallbacks++
		}
		res.Phases.Solve += o.dur
		if o.dur > res.LongestSolve {
			res.LongestSolve = o.dur
		}
		res.SlowestTiles = insertSlowTile(res.SlowestTiles, TileTime{
			I: in.I + e.Cfg.TileOffI, J: in.J + e.Cfg.TileOffJ,
			Dur: o.dur, Nodes: o.st.nodes,
		})
		placed := 0
		for _, m := range o.a {
			placed += m
		}
		// Capped methods may under-place; everything else must hit F.
		if method != GreedyCapped {
			if err := in.Valid(o.a); err != nil {
				return nil, fmt.Errorf("core: %v on tile (%d,%d): %w", method, in.I, in.J, err)
			}
		}
		evalStart := time.Now()
		u, w, err := in.Evaluate(o.a)
		if err == nil {
			res.Unweighted += u
			res.Weighted += w
			res.Requested += in.F
			res.Placed += placed
			res.Tiles++
			err = e.accumulatePerNet(res.PerNet, in, o.a)
		}
		res.Phases.Evaluate += time.Since(evalStart)
		if err != nil {
			return nil, fmt.Errorf("core: %v on tile (%d,%d): %w", method, in.I, in.J, err)
		}
		placeStart := time.Now()
		err = e.place(res.Fill, in, o.a, &placeRows)
		res.Phases.Place += time.Since(placeStart)
		if err != nil {
			return nil, fmt.Errorf("core: %v on tile (%d,%d): %w", method, in.I, in.J, err)
		}
	}
	res.CPU = res.Phases.Solve
	res.Wall = time.Since(start)
	res.Phases.Preprocess = e.Prep.Total
	return res, nil
}

// insertSlowTile inserts t into the slowest-first top-K list, keeping at
// most MaxSlowestTiles entries. Ties keep the earlier (instance-order)
// entry first, so runs with equal durations stay deterministic.
func insertSlowTile(list []TileTime, t TileTime) []TileTime {
	pos := len(list)
	for pos > 0 && t.Dur > list[pos-1].Dur {
		pos--
	}
	if pos >= MaxSlowestTiles {
		return list
	}
	if len(list) < MaxSlowestTiles {
		list = append(list, TileTime{})
	}
	copy(list[pos+1:], list[pos:])
	list[pos] = t
	return list
}

// accumulatePerNet adds each bounding net's unweighted delay contribution,
// using the switch-factor-scaled resistances so the per-net totals sum to
// exactly what Evaluate reports. An assignment exceeding a column's cost
// curve indicates a capacity-extraction bug and is reported as an error.
func (e *Engine) accumulatePerNet(perNet []float64, in *Instance, a Assignment) error {
	for k, m := range a {
		cv := &in.Columns[k]
		if m <= 0 || cv.DeltaC == nil {
			continue
		}
		if m >= len(cv.DeltaC) {
			return fmt.Errorf("core: column %d assignment %d exceeds cost curve (max %d)", k, m, len(cv.DeltaC)-1)
		}
		dc := cv.DeltaC[m]
		if cv.NetLow >= 0 {
			perNet[cv.NetLow] += dc * cv.REffLow
		}
		if cv.NetHigh >= 0 {
			perNet[cv.NetHigh] += dc * cv.REffHigh
		}
	}
	return nil
}

// freeRowsCenterOut appends a column's free rows to dst, nearest the gap's
// vertical center first (lower row first on ties). This is the placement
// order of place; buildInstance memoizes it per column so repeated runs over
// the same instances skip the occupancy scan.
//
// Site centers are linear in the row, so the distance to the gap center is
// V-shaped over the rows: it falls to the first row centered at or above
// the gap center and rises after it. Two cursors walk outward from there,
// down and up, always taking the nearer free row (the lower on a tie) —
// exactly the rows sorted by (distance, row).
func (e *Engine) freeRowsCenterOut(dst []int, col *scanline.Column) []int {
	center := (col.YLo + col.YHi) / 2
	dist := func(r int) int64 {
		return absI64(e.Grid.SiteY(r) + e.Rule.Feature/2 - center)
	}
	// split is the first row whose site center is at or above the gap
	// center: rows below it lie below the center, rows from it on above.
	split := col.RowLo
	for split < col.RowHi && e.Grid.SiteY(split)+e.Rule.Feature/2 < center {
		split++
	}
	lo, hi := split-1, split
	for {
		for lo >= col.RowLo && e.Occ.Blocked(col.Col, lo) {
			lo--
		}
		for hi < col.RowHi && e.Occ.Blocked(col.Col, hi) {
			hi++
		}
		switch {
		case lo >= col.RowLo && (hi >= col.RowHi || dist(lo) <= dist(hi)):
			dst = append(dst, lo)
			lo--
		case hi < col.RowHi:
			dst = append(dst, hi)
			hi++
		default:
			return dst
		}
	}
}

// place materializes an assignment into fill features: the m features of a
// column take the free rows nearest the gap's vertical center (the block
// abstraction of the capacitance model grows symmetrically). Columns built
// by buildInstance carry their center-out free-row order in
// ColumnVar.FreeRows; hand-built test instances without it fall back to a
// fresh occupancy scan. An assignment exceeding a column's free sites
// indicates a capacity-extraction bug and is reported as an error. rowBuf,
// when non-nil, is a caller-owned scratch slice reused across columns (and
// calls) for the row sort; nil allocates per column.
func (e *Engine) place(fs *layout.FillSet, in *Instance, a Assignment, rowBuf *[]int) error {
	for k, m := range a {
		if m <= 0 {
			continue
		}
		cv := &in.Columns[k]
		free := cv.FreeRows
		if free == nil {
			free = e.freeRowsCenterOut(nil, cv.Col)
		}
		if m > len(free) {
			return fmt.Errorf("core: column %d assignment %d exceeds %d free sites", k, m, len(free))
		}
		var rows []int
		if rowBuf != nil {
			rows = append((*rowBuf)[:0], free[:m]...)
			*rowBuf = rows
		} else {
			rows = append([]int(nil), free[:m]...)
		}
		slices.Sort(rows)
		for _, r := range rows {
			fs.Fills = append(fs.Fills, layout.Fill{Col: cv.Col.Col, Row: r})
		}
	}
	return nil
}

// solveGreedyCapped runs the Fig 8 greedy with the footnote's safeguard: an
// upper bound on each net's added delay. Columns are filled in cost order,
// but the take is reduced so no bounding net exceeds the cap; the method may
// therefore place fewer than F features.
func (e *Engine) solveGreedyCapped(in *Instance) Assignment {
	a := make(Assignment, len(in.Columns))
	e.solveGreedyCappedInto(a, in, nil)
	return a
}

// solveGreedyCappedInto is solveGreedyCapped writing into a zeroed
// Assignment, sourcing the sort keys and per-net spend map from sc.
func (e *Engine) solveGreedyCappedInto(a Assignment, in *Instance, sc *SolveScratch) {
	capS := e.Cfg.NetCap
	if capS <= 0 {
		sc.keysOut(solveGreedyInto(a, in, sc.keysIn()))
		return
	}
	keys := wholeColumnKeys(sc.keysIn(), in)
	sc.keysOut(keys)
	spent := sc.spentMap()
	remaining := in.F
	for _, kd := range keys {
		if remaining == 0 {
			break
		}
		cv := &in.Columns[kd.k]
		take := cv.MaxM
		if take > remaining {
			take = remaining
		}
		if cv.DeltaC != nil {
			// Charge the switch-factor-scaled resistances so the cap bounds
			// the same per-net delay that Evaluate and PerNet report.
			for take > 0 {
				dc := cv.DeltaC[take]
				okLow := cv.NetLow < 0 || spent[cv.NetLow]+dc*cv.REffLow <= capS
				okHigh := cv.NetHigh < 0 || spent[cv.NetHigh]+dc*cv.REffHigh <= capS
				if okLow && okHigh {
					break
				}
				take--
			}
			if take > 0 {
				dc := cv.DeltaC[take]
				if cv.NetLow >= 0 {
					spent[cv.NetLow] += dc * cv.REffLow
				}
				if cv.NetHigh >= 0 {
					spent[cv.NetHigh] += dc * cv.REffHigh
				}
			}
		}
		a[kd.k] = take
		remaining -= take
	}
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

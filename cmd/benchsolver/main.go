// Command benchsolver benchmarks the ILP solver core and writes the results
// as JSON:
//
//	benchsolver -o BENCH_solver.json          # full case set
//	benchsolver -short                        # single case (CI)
//	benchsolver -check                        # exit 1 unless the floors hold
//
// For every benchmark case it builds the harness's tile instances and solves
// each tile's ILP-I and ILP-II program as the engine does (bounded-variable
// simplex, reusable workspace, greedy incumbent seeding, ILP-I warm start).
// The "work" of each family is summarized as B&B nodes x LP pivots and held
// to a frozen per-case ceiling: half the work the row-based reference search
// (fresh tableau per node, bounds encoded as constraint rows, no incumbent)
// needed on the same case. The row-based counts are deterministic, so the
// ceiling is the old live "2x work reduction" floor without re-running the
// reference; the reference itself is now a test oracle (internal/ilp), where
// TestTileProgramsMatchRowBased checks statuses and objectives tile by tile.
//
// The DualAscent section solves the same tiles a second way — Lagrangian
// dual ascent with an exact optimality certificate — and holds it to bit
// identity: on every tile proven Optimal by branch-and-bound, the dual
// objective must be bit-identical (canonical addend order) to ILP-II's, and
// to ILP-I's on the linearized instances ILP-I actually optimizes. Since the
// certificate path does zero B&B nodes and zero pivots, its gain is reported
// in wall time (ns), along with each path's zero-pivot tile fraction and the
// dual fallback rate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"pilfill/internal/core"
	"pilfill/internal/harness"
	"pilfill/internal/ilp"
	"pilfill/internal/obs"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchsolver: "+format+"\n", args...)
	os.Exit(1)
}

// benchCase names one harness grid point and its frozen work ceilings: half
// the nodes x pivots the row-based reference search recorded on the case
// (BENCH_solver.json before the reference became a test oracle).
type benchCase struct {
	Testcase            string
	W, R                int
	ILPICeil, ILPIICeil float64
}

func (c benchCase) name() string { return fmt.Sprintf("%s/%d/%d", c.Testcase, c.W, c.R) }

// PathStats is the measured work of one solver path over a case.
type PathStats struct {
	Nodes           int     `json:"nodes"`
	Pivots          int     `json:"pivots"`
	NS              int64   `json:"ns"`
	Pivots0Fraction float64 `json:"pivots0_fraction"` // tiles solved without a single LP pivot
}

func (s PathStats) work() float64 { return float64(s.Nodes) * float64(s.Pivots) }

// Family is one solver family (ILP-I or ILP-II) on one case: its measured
// work and the case's frozen ceiling.
type Family struct {
	PathStats
	Work        float64 `json:"work"`         // nodes x pivots
	WorkCeiling float64 `json:"work_ceiling"` // -check fails when Work exceeds it
}

func family(st PathStats, ceiling float64) Family {
	return Family{PathStats: st, Work: st.work(), WorkCeiling: ceiling}
}

// DualComparison is the DualAscent path on one case, measured against the
// ILP-II solver over the same tiles. The dual certificate
// does no B&B and no pivoting, so nodes*pivots is identically zero and the
// reduction is reported in wall time instead.
type DualComparison struct {
	Dual          PathStats `json:"dual"`
	Fallbacks     int       `json:"fallbacks"`
	FallbackRate  float64   `json:"dual_fallback"`        // fallbacks over tiles
	NSReductionII float64   `json:"ns_reduction_vs_ilp2"` // ILP-II new-path ns over dual ns
}

// CaseResult is the JSON record of one benchmark case.
type CaseResult struct {
	Case  string         `json:"case"`
	Tiles int            `json:"tiles"`
	ILPI  Family         `json:"ilp1"`
	ILPII Family         `json:"ilp2"`
	Dual  DualComparison `json:"dual"`
}

// Output is the BENCH_solver.json document.
type Output struct {
	Generated       string       `json:"generated"`
	Short           bool         `json:"short"`
	Cases           []CaseResult `json:"cases"`
	DualNSReduction float64      `json:"dual_ns_reduction_vs_ilp2"` // worst case over Cases
}

// buildInstances constructs the tile instances of one harness grid point the
// same way harness.RunRow does before solving.
func buildInstances(c benchCase) ([]*core.Instance, error) {
	_, instances, err := harness.BuildInstances(c.Testcase, c.W, c.R, core.Config{Seed: 1})
	return instances, err
}

// tileSolve solves one tile program along one path and returns its solution.
type tileSolve func(in *core.Instance) (*ilp.Solution, error)

// runPath executes solve over every instance, accumulating work counters.
func runPath(instances []*core.Instance, solve tileSolve) (PathStats, []*ilp.Solution, error) {
	var st PathStats
	pivots0 := 0
	sols := make([]*ilp.Solution, len(instances))
	start := time.Now()
	for i, in := range instances {
		sol, err := solve(in)
		if err != nil {
			return st, nil, err
		}
		if sol != nil {
			st.Nodes += sol.Nodes
			st.Pivots += sol.LPPivots
		}
		if sol == nil || sol.LPPivots == 0 {
			pivots0++
		}
		sols[i] = sol
	}
	st.NS = time.Since(start).Nanoseconds()
	if len(instances) > 0 {
		st.Pivots0Fraction = float64(pivots0) / float64(len(instances))
	}
	return st, sols, nil
}

// canonCost evaluates an assignment's exact cost with its addends in a
// canonical (sorted) order. Floating-point addition is not associative, so
// two equal-cost optima that permute fill among identical columns could
// differ in the last ulp if summed in column order; sorting the addends
// first makes the comparison permutation-invariant, and both sides of every
// bit-equality check below go through this one helper.
func canonCost(in *core.Instance, a core.Assignment) float64 {
	var addends []float64
	for k, m := range a {
		if m <= 0 || in.Columns[k].CostExact == nil {
			continue
		}
		addends = append(addends, in.Columns[k].CostExact[m])
	}
	sort.Float64s(addends)
	sum := 0.0
	for _, v := range addends {
		sum += v
	}
	return sum
}

// linearize clones an instance with each costed column's exact curve replaced
// by the linear curve ILP-I actually optimizes (slope times count), so the
// dual solver and a decoded ILP-I solution can be compared bit-exactly on the
// program ILP-I solves rather than within a linearization tolerance.
func linearize(in *core.Instance) *core.Instance {
	lin := *in
	lin.Columns = make([]core.ColumnVar, len(in.Columns))
	copy(lin.Columns, in.Columns)
	for k := range lin.Columns {
		cv := &lin.Columns[k]
		if cv.CostExact == nil {
			continue
		}
		cost := make([]float64, len(cv.CostExact))
		for m := 1; m < len(cost); m++ {
			cost[m] = cv.LinearSlope * float64(m)
		}
		cv.CostExact = cost
	}
	return &lin
}

func runCase(c benchCase) (CaseResult, error) {
	instances, err := buildInstances(c)
	if err != nil {
		return CaseResult{}, err
	}
	res := CaseResult{Case: c.name(), Tiles: len(instances)}
	opts := &ilp.Options{MaxNodes: 20000}

	// ILP-I: seeded + warm-started, as SolveILPI configures it.
	newI, newISols, err := runPath(instances, func(in *core.Instance) (*ilp.Solution, error) {
		p, inc := core.BuildILPI(in)
		if p == nil {
			return nil, nil
		}
		o := *opts
		o.Incumbent = inc
		o.WarmStart = true
		return ilp.Solve(p, &o)
	})
	if err != nil {
		return res, err
	}
	res.ILPI = family(newI, c.ILPICeil)

	// ILP-II: seeded with the marginal-greedy incumbent, no warm start.
	newII, newIISols, err := runPath(instances, func(in *core.Instance) (*ilp.Solution, error) {
		g := core.BuildILPII(in, nil)
		if g == nil {
			return nil, nil
		}
		o := *opts
		o.Incumbent = g.Incumbent
		return ilp.Solve(g.P, &o)
	})
	if err != nil {
		return res, err
	}
	res.ILPII = family(newII, c.ILPIICeil)

	// DualAscent: the same tiles through the Lagrangian dual path. Certified
	// tiles do zero B&B nodes and zero LP pivots, so nodes*pivots is not a
	// meaningful work metric for it; the comparison against ILP-II is wall
	// time instead.
	dualAssigns := make([]core.Assignment, len(instances))
	fallbacks := 0
	di := 0
	dual, _, err := runPath(instances, func(in *core.Instance) (*ilp.Solution, error) {
		o := *opts
		a, sol, fellBack, err := core.SolveDualAscent(context.Background(), in, &o, nil, 0)
		if err != nil {
			return nil, err
		}
		dualAssigns[di] = a
		di++
		if fellBack {
			fallbacks++
		}
		return sol, nil
	})
	if err != nil {
		return res, err
	}
	res.Dual = DualComparison{Dual: dual, Fallbacks: fallbacks}
	if len(instances) > 0 {
		res.Dual.FallbackRate = float64(fallbacks) / float64(len(instances))
	}
	res.Dual.NSReductionII = float64(newII.NS) / math.Max(float64(dual.NS), 1)

	// Exactness, to the bit: on every tile branch-and-bound proved Optimal, the dual assignment's
	// cost must be bit-identical to the decoded ILP-II optimum on the exact
	// program. Node-limited (Feasible) tiles pin no optimum and are skipped.
	for i, in := range instances {
		ref := newIISols[i]
		aRef := make(core.Assignment, len(in.Columns))
		if ref != nil {
			if ref.Status != ilp.Optimal {
				continue
			}
			aRef = core.BuildILPII(in, nil).Decode(ref.X)
		}
		if got, want := canonCost(in, dualAssigns[i]), canonCost(in, aRef); got != want {
			return res, fmt.Errorf("%s dual tile %d: cost %g != ILP-II optimum %g",
				c.name(), i, got, want)
		}
	}

	// The same bit-equality against ILP-I, in ILP-I's own domain: the dual
	// solver runs on a linearized clone of each tile (the program ILP-I
	// actually optimizes), so the exact-model gap — ILP-I's documented
	// weakness, not a solver bug — cannot leak into the comparison.
	for i, in := range instances {
		ref := newISols[i]
		if ref != nil && ref.Status != ilp.Optimal {
			continue
		}
		lin := linearize(in)
		o := *opts
		aDual, _, _, err := core.SolveDualAscent(context.Background(), lin, &o, nil, 0)
		if err != nil {
			return res, err
		}
		aRef := make(core.Assignment, len(in.Columns))
		if ref != nil {
			for k := range aRef {
				aRef[k] = int(ref.X[k] + 0.5)
			}
		}
		if got, want := canonCost(lin, aDual), canonCost(lin, aRef); got != want {
			return res, fmt.Errorf("%s dual tile %d: linearized cost %g != ILP-I optimum %g",
				c.name(), i, got, want)
		}
	}
	return res, nil
}

func main() {
	var (
		out        = flag.String("o", "BENCH_solver.json", "output file, - for stdout")
		short      = flag.Bool("short", false, "single-case run for CI")
		check      = flag.Bool("check", false, "exit 1 unless both ILP families stay within their per-case work ceilings and DualAscent reaches a 5x wall-time reduction over ILP-II")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fail("%v", err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "benchsolver: cpu profile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memprofile); err != nil {
				fmt.Fprintf(os.Stderr, "benchsolver: heap profile: %v\n", err)
			}
		}()
	}

	cases := []benchCase{
		{"T1", 20, 8, 7_503_160, 44_920_896},
		{"T1", 32, 4, 726_432, 4_060_448},
		{"T2", 20, 8, 29_778_300, 197_087_207},
	}
	if *short {
		cases = cases[:1]
	}

	doc := Output{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		Short:           *short,
		DualNSReduction: math.Inf(1),
	}
	var overCeiling []string
	for _, c := range cases {
		res, err := runCase(c)
		if err != nil {
			fail("%v", err)
		}
		doc.Cases = append(doc.Cases, res)
		doc.DualNSReduction = math.Min(doc.DualNSReduction, res.Dual.NSReductionII)
		for name, f := range map[string]Family{"ILP-I": res.ILPI, "ILP-II": res.ILPII} {
			if f.Work > f.WorkCeiling {
				overCeiling = append(overCeiling, fmt.Sprintf("%s %s work %.0f > ceiling %.0f",
					res.Case, name, f.Work, f.WorkCeiling))
			}
		}
		fmt.Fprintf(os.Stderr, "%-10s  ILP-I %5d nodes %7d pivots (work %.0f, ceiling %.0f)  ILP-II %5d/%7d (work %.0f, ceiling %.0f)\n",
			res.Case,
			res.ILPI.Nodes, res.ILPI.Pivots, res.ILPI.Work, res.ILPI.WorkCeiling,
			res.ILPII.Nodes, res.ILPII.Pivots, res.ILPII.Work, res.ILPII.WorkCeiling)
		fmt.Fprintf(os.Stderr, "%-10s  Dual  %5d nodes %7d pivots  fallback %.3f  pivots==0 %.3f (ILP-I %.3f, ILP-II %.3f)  %.2fx ns vs ILP-II\n",
			res.Case,
			res.Dual.Dual.Nodes, res.Dual.Dual.Pivots,
			res.Dual.FallbackRate, res.Dual.Dual.Pivots0Fraction,
			res.ILPI.Pivots0Fraction, res.ILPII.Pivots0Fraction,
			res.Dual.NSReductionII)
	}

	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fail("%v", err)
	}

	if *check && len(overCeiling) > 0 {
		sort.Strings(overCeiling)
		fail("work above ceiling: %s", strings.Join(overCeiling, "; "))
	}
	if *check && doc.DualNSReduction < 5 {
		fail("DualAscent wall-time reduction over ILP-II below 5x: %.2fx", doc.DualNSReduction)
	}
}

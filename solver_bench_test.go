// Solver micro-benchmarks: the ILP-I and ILP-II branch-and-bound cores on
// harness-built tile instances:
//
//	go test -bench 'ILPI|ILPII' -benchtime 5x -run '^$' .
//
// The companion cmd/benchsolver writes per-case work against frozen ceilings
// to BENCH_solver.json; these benchmarks are for quick ns/op readings during
// solver work.
package pilfill

import (
	"testing"

	"pilfill/internal/core"
	"pilfill/internal/density"
	"pilfill/internal/harness"
	"pilfill/internal/ilp"
	"pilfill/internal/layout"
	"pilfill/internal/testcases"
)

// benchInstances builds the tile instances of one harness grid row.
func benchInstances(b *testing.B, caseName string, w, r int) []*core.Instance {
	b.Helper()
	var spec testcases.Spec
	if caseName == "T2" {
		spec = testcases.T2()
	} else {
		spec = testcases.T1()
	}
	l, err := testcases.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	dis, err := layout.NewDissection(l.Die, testcases.WindowNM(w), r)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(l, dis, spec.Rule, core.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	grid := density.NewGrid(l, dis, eng.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{
		TargetMin:  harness.TargetMinDensity,
		MaxDensity: harness.MaxDensity,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	instances, err := eng.Instances(budget)
	if err != nil {
		b.Fatal(err)
	}
	return instances
}

// reportWork attaches node/pivot counters as benchmark metrics.
func reportWork(b *testing.B, nodes, pivots int) {
	b.Helper()
	b.ReportMetric(float64(nodes), "nodes")
	b.ReportMetric(float64(pivots), "pivots")
}

// BenchmarkILPI measures the ILP-I solver core on the T1/20/8 instances as
// the engine solves them: bounded-variable simplex, workspace reuse, greedy
// incumbent and warm start.
func BenchmarkILPI(b *testing.B) {
	instances := benchInstances(b, "T1", 20, 8)
	opts := &ilp.Options{MaxNodes: 20000}
	b.ResetTimer()
	var nodes, pivots int
	for i := 0; i < b.N; i++ {
		nodes, pivots = 0, 0
		for _, in := range instances {
			p, inc := core.BuildILPI(in)
			if p == nil {
				continue
			}
			o := *opts
			o.Incumbent = inc
			o.WarmStart = true // as SolveILPI configures it
			sol, err := ilp.Solve(p, &o)
			if err != nil {
				b.Fatal(err)
			}
			nodes += sol.Nodes
			pivots += sol.LPPivots
		}
	}
	reportWork(b, nodes, pivots)
}

// BenchmarkILPII measures the ILP-II solver core on the T1/20/8 instances,
// seeded with the marginal-greedy incumbent as the engine solves them.
func BenchmarkILPII(b *testing.B) {
	instances := benchInstances(b, "T1", 20, 8)
	opts := &ilp.Options{MaxNodes: 20000}
	b.ResetTimer()
	var nodes, pivots int
	for i := 0; i < b.N; i++ {
		nodes, pivots = 0, 0
		for _, in := range instances {
			g := core.BuildILPII(in, nil)
			if g == nil {
				continue
			}
			o := *opts
			o.Incumbent = g.Incumbent
			sol, err := ilp.Solve(g.P, &o)
			if err != nil {
				b.Fatal(err)
			}
			nodes += sol.Nodes
			pivots += sol.LPPivots
		}
	}
	reportWork(b, nodes, pivots)
}

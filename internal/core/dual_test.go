package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pilfill/internal/ilp"
	"pilfill/internal/scanline"
)

// dualSynthInstance builds a random tile whose exact cost curves are small-
// integer-valued: every objective sum is exact in float64 and distinct
// objectives differ by at least 1, so optimality comparisons against the
// branch-and-bound path are bit-exact rather than tolerance-based. convex
// selects non-decreasing integer marginals (every integer point a hull
// vertex — the certificate path); otherwise marginals may dip, grounded-fill
// style, so the convexified sweep can land strictly above the true curve and
// the certificate must hand the tile to branch-and-bound.
func dualSynthInstance(rng *rand.Rand, nCols int, convex bool) *Instance {
	in := &Instance{}
	total := 0
	for k := 0; k < nCols; k++ {
		capacity := 1 + rng.Intn(5)
		cv := ColumnVar{
			Col:    &scanline.Column{Col: k, Capacity: capacity},
			MaxM:   capacity,
			NetLow: -1, NetHigh: -1,
		}
		if rng.Float64() < 0.85 {
			n := capacity + 1
			cost := make([]float64, n)
			dc := make([]float64, n)
			marg := float64(rng.Intn(3))
			for m := 1; m < n; m++ {
				if convex {
					marg += float64(rng.Intn(4))
				} else {
					marg = float64(rng.Intn(8))
				}
				cost[m] = cost[m-1] + marg
				dc[m] = dc[m-1] + float64(1+rng.Intn(3))
			}
			cv.CostExact = cost
			cv.DeltaC = dc
			cv.EvalUnweighted = cost
			cv.EvalWeighted = cost
			cv.LinearSlope = cost[n-1] / float64(capacity)
			cv.NetLow = rng.Intn(3)
			cv.RLow = 1
			cv.REffLow = 1
			if rng.Intn(3) == 0 {
				cv.NetHigh = 3 + rng.Intn(2)
				cv.RHigh = 1
				cv.REffHigh = 1
			}
		}
		in.Columns = append(in.Columns, cv)
		total += cv.MaxM
	}
	if total > 0 {
		in.F = rng.Intn(total + 1)
	}
	return in
}

// dualRandomCaps caps each net at a random fraction of what the uncapped
// marginal-greedy assignment spends on it, so the cap-violation fallback and
// the caps-already-satisfied certificate path both occur across trials.
func dualRandomCaps(rng *rand.Rand, in *Instance) *NetCap {
	inc := SolveMarginalGreedy(in)
	spend := map[int]float64{}
	for k, m := range inc {
		cv := &in.Columns[k]
		if m <= 0 || cv.DeltaC == nil {
			continue
		}
		if cv.NetLow >= 0 {
			spend[cv.NetLow] += cv.DeltaC[m] * cv.REffLow
		}
		if cv.NetHigh >= 0 {
			spend[cv.NetHigh] += cv.DeltaC[m] * cv.REffHigh
		}
	}
	nc := &NetCap{PerNet: make([]float64, 5)}
	for net, s := range spend {
		// 0.3..1.3 of the greedy spend: sometimes binding, sometimes slack.
		nc.PerNet[net] = s * (0.3 + rng.Float64())
	}
	return nc
}

// TestQuickDualAscentMatchesILPII is the exactness property suite the method
// advertises: on 1000 random integer-valued tile instances — convex and
// non-convex curves, with and without per-net caps — the DualAscent objective
// is bit-identical to the ILP-II branch-and-bound optimum, and both the
// certificate and the fallback branch are actually exercised.
func TestQuickDualAscentMatchesILPII(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	certified, fellBack, capped := 0, 0, 0
	for trial := 0; trial < 1000; trial++ {
		in := dualSynthInstance(rng, 1+rng.Intn(8), trial%2 == 0)
		var nc *NetCap
		if trial%3 == 0 && in.F > 0 {
			nc = dualRandomCaps(rng, in)
			capped++
		}
		aDual, _, fallback, errD := SolveDualAscent(context.Background(), in, nil, nc, 0)
		aRef, _, errR := SolveILPII(in, nil, nc)
		if (errD == nil) != (errR == nil) {
			t.Fatalf("trial %d: dual err %v, ILP-II err %v", trial, errD, errR)
		}
		if errD != nil {
			continue // caps made the tile infeasible; both paths agree
		}
		if err := in.Valid(aDual); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if c, ref := in.Cost(aDual), in.Cost(aRef); c != ref {
			t.Fatalf("trial %d: dual cost %g != ILP-II cost %g (fallback=%v)",
				trial, c, ref, fallback)
		}
		if fallback {
			// The fallback runs the identical program and searcher, so even
			// the assignment must match, not just its cost.
			if !slices.Equal(aDual, aRef) {
				t.Fatalf("trial %d: fallback assignment %v != ILP-II %v", trial, aDual, aRef)
			}
			fellBack++
		} else {
			certified++
		}
	}
	if certified == 0 || fellBack == 0 || capped == 0 {
		t.Fatalf("branch coverage too thin: %d certified, %d fallbacks, %d capped trials",
			certified, fellBack, capped)
	}
}

// TestDualCertifiesCapModelCurves runs DualAscent over instances built from
// the real capacitance model: floating-fill cost curves are convex, so every
// tile must close on the certificate (zero B&B nodes, sol == nil) and still
// match the exact DP optimum.
func TestDualCertifiesCapModelCurves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		in := synthInstance(rng, 2+rng.Intn(8))
		aDual, sol, fallback, err := SolveDualAscent(context.Background(), in, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fallback || sol != nil {
			t.Fatalf("trial %d: convex cap-model instance fell back to B&B", trial)
		}
		if err := in.Valid(aDual); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dpA, err := SolveDP(in)
		if err != nil {
			t.Fatal(err)
		}
		c, opt := in.Cost(aDual), in.Cost(dpA)
		if math.Abs(c-opt) > 1e-9*math.Max(opt, 1e-30)+1e-25 {
			t.Fatalf("trial %d: dual cost %g, DP optimum %g", trial, c, opt)
		}
	}
}

// TestDualScratchPathMatchesUnpooled pins the warm scratch path to the
// exported fresh-scratch SolveDualAscent: same assignment, same fallback
// verdict, across a scratch instance reused for every trial.
func TestDualScratchPathMatchesUnpooled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := NewSolveScratch()
	for trial := 0; trial < 200; trial++ {
		in := dualSynthInstance(rng, 1+rng.Intn(8), trial%2 == 0)
		var nc *NetCap
		if trial%3 == 0 && in.F > 0 {
			nc = dualRandomCaps(rng, in)
		}
		ref, _, refFB, errR := SolveDualAscent(context.Background(), in, nil, nc, 0)
		a := make(Assignment, len(in.Columns))
		_, st, err := sc.solveDual(context.Background(), in, &ilp.Options{}, nc, 0, a)
		if (errR == nil) != (err == nil) {
			t.Fatalf("trial %d: fresh err %v, warm scratch err %v", trial, errR, err)
		}
		if err != nil {
			continue
		}
		if st.dualFallback != refFB {
			t.Fatalf("trial %d: fallback %v vs %v", trial, st.dualFallback, refFB)
		}
		if !slices.Equal(a, ref) {
			t.Fatalf("trial %d: warm scratch %v != fresh %v", trial, a, ref)
		}
	}
}

// TestDualAscentContextCancelled mirrors the repo-level context tests at the
// solver layer: a cancelled context surfaces context.Canceled from both the
// allocating and the scratch path (the hull build polls per column, the λ
// sweep every dualPollEvery breakpoint steps).
func TestDualAscentContextCancelled(t *testing.T) {
	in := dualSynthInstance(rand.New(rand.NewSource(3)), 8, true)
	if in.F == 0 {
		in.F = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := SolveDualAscent(ctx, in, nil, nil, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sc := NewSolveScratch()
	a := make(Assignment, len(in.Columns))
	if _, _, err := sc.solveDual(ctx, in, &ilp.Options{}, nil, 0, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("scratch err = %v, want context.Canceled", err)
	}
	// The same instance still solves with a live context.
	if _, _, _, err := SolveDualAscent(context.Background(), in, nil, nil, 0); err != nil {
		t.Fatalf("solve after cancelled solve: %v", err)
	}
}

// TestDualFallbackCountsReplayFromMemo runs cap-violating tiles through the
// engine: every tile's certified uncapped optimum breaks the per-net cap, so
// every tile falls back, Result.DualFallbacks counts them, and a warm run
// replays the counter (and the result) bit-identically from the memo.
func TestDualFallbackCountsReplayFromMemo(t *testing.T) {
	l, d := smallLayout(t)
	memo := NewSolveMemo()
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, NetCap: 2e-15, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	const tiles = 3
	var instances []*Instance
	for i := 0; i < tiles; i++ {
		in := repairInstance()
		in.I = i
		for k := range in.Columns {
			in.Columns[k].Col = &scanline.Column{Col: k}
			in.Columns[k].FreeRows = []int{0, 1, 2, 3}
		}
		instances = append(instances, in)
	}
	cold, err := eng.Run(DualAscent, instances)
	if err != nil {
		t.Fatal(err)
	}
	if cold.DualFallbacks != tiles {
		t.Errorf("cold run: %d fallbacks, want %d", cold.DualFallbacks, tiles)
	}
	if cold.MemoMisses != 1 || cold.MemoHits != tiles-1 {
		t.Errorf("cold run: %d misses %d hits, want 1 miss (pattern copies dedup)",
			cold.MemoMisses, cold.MemoHits)
	}
	warm, err := eng.Run(DualAscent, instances)
	if err != nil {
		t.Fatal(err)
	}
	if warm.MemoHits != tiles {
		t.Errorf("warm run: %d hits over %d tiles", warm.MemoHits, tiles)
	}
	resultsIdentical(t, cold, warm, "dual-memo")

	// Uncapped, the same tiles certify: no fallbacks — and since NetCap is
	// part of the memo fingerprint, the shared memo must not replay the
	// capped entries above into this differently-configured engine.
	free, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	res, err := free.Run(DualAscent, instances)
	if err != nil {
		t.Fatal(err)
	}
	if res.DualFallbacks != 0 {
		t.Errorf("uncapped run reports %d fallbacks", res.DualFallbacks)
	}
}

package core

import (
	"container/heap"
	"context"

	"pilfill/internal/ilp"
)

// Lagrangian dual ascent on the per-tile near-knapsack (DESIGN.md §13).
//
// Every tile program shares one structure: minimize a separable objective
// Σ_k c_k(m_k) subject to the single coupling budget row Σ_k m_k = F and the
// per-column box 0 <= m_k <= MaxM_k (per-net cap rows, when configured, are
// handled by fallback — see below). Dualizing the budget row with a
// multiplier λ decomposes the Lagrangian into independent per-column
// subproblems min_m c_k(m) − λ·m, whose exact parametric solution over ALL λ
// simultaneously is the lower convex hull of the integer points
// {(m, c_k(m))}: as λ grows, the per-column argmin walks the hull vertices in
// order, so the breakpoints of the dual function are exactly the hull-edge
// slopes. Driving λ up one breakpoint at a time — a monotone ascent on the
// budget residual Σ_k m_k(λ) − F, which decreases by one column unit per
// step — is implemented as a marginal-greedy sweep over the per-unit
// convexified marginals with the same heap discipline (and the same
// (delta, column) tie-break) as SolveMarginalGreedy: the F-th popped marginal
// is the optimal multiplier λ*, and the pop sequence is its subgradient walk.
//
// The sweep solves min Σ_k ĉ_k(m_k) over the budget row exactly, where ĉ_k
// is the convexified (hull) curve with ĉ_k <= c_k pointwise, so
// Σ_k ĉ_k(a_k) is a valid lower bound on the integer optimum while
// Σ_k c_k(a_k) is a feasible primal value. The duality gap is the per-column
// sum of c_k(a_k) − ĉ_k(a_k); a column landing on a hull vertex contributes
// exactly 0.0 (hull vertices keep the original cost values, no arithmetic),
// which is the certificate's common case: floating-fill cost curves are
// convex, so every integer point is a hull vertex. Only grounded-fill step
// curves (or other non-convex hand-built instances) can land strictly above
// the hull, and then the gap is compared against gapTol·primal.
//
// Fallback taxonomy (solveStats.dualFallback, Result.DualFallbacks):
//   - certificate failure: duality gap above the rounding threshold (the
//     assignment may be suboptimal for the true curves);
//   - budget shortfall: total capacity below F (the B&B path owns the
//     infeasibility error message);
//   - cap violation: a configured per-net delay cap is exceeded by the
//     certified assignment. When the uncapped optimum happens to satisfy
//     every cap it is optimal for the capped program too (optimal for a
//     relaxation and feasible), so the caps are checked after the fact
//     rather than priced into the dual.
//
// Every fallback re-solves the tile with the existing ILP-II program and
// branch-and-bound searcher, so correctness never regresses: DualAscent is
// exact on every instance, by certificate or by B&B.

// DualGapTolDefault is the relative duality-gap acceptance threshold of the
// DualAscent certificate (Config.DualGapTol = 0 selects it). It mirrors the
// branch-and-bound searcher's 1e-9 bound-pruning tolerance: an assignment
// within 1e-9 relative of its own lower bound is as proven-optimal as a B&B
// incumbent at a closed root.
const DualGapTolDefault = 1e-9

// dualPollEvery is the sweep's cancellation-poll cadence in λ breakpoint
// steps (heap pops). The hull build additionally polls once per column, the
// same granularity as SolveDPContext's table fill.
const dualPollEvery = 4096

// dualGapTol resolves Config.DualGapTol (0 means DualGapTolDefault).
func (e *Engine) dualGapTol() float64 {
	if e.Cfg.DualGapTol > 0 {
		return e.Cfg.DualGapTol
	}
	return DualGapTolDefault
}

// dualCertify runs the dual-ascent sweep and the optimality certificate,
// writing the assignment into a (zeroed, length == columns). ok = false means
// the caller must fall back to branch-and-bound (gap above threshold, budget
// shortfall, or a violated per-net cap); a is then partially written garbage
// the fallback overwrites. The only error is a cancelled context.
func dualCertify(ctx context.Context, a Assignment, in *Instance, netCap *NetCap, gapTol float64, sc *SolveScratch) (bool, error) {
	kn := len(in.Columns)
	if kn == 0 || in.F == 0 {
		return true, nil
	}
	total := 0
	for k := range in.Columns {
		total += in.Columns[k].MaxM + 1
	}
	marg, vert, off, hull, hp := sc.dualBuffers(total, kn)

	// Per-column lower convex hulls (monotone chain over m ascending),
	// expanded into per-unit convexified marginals. marg[off_k+m] is the
	// hull slope covering the step m−1 → m — non-decreasing in m by
	// convexity of the hull — and vert flags the integer points lying ON
	// the hull, where ĉ_k(m) == c_k(m) exactly.
	pos := 0
	for k := range in.Columns {
		if err := ctx.Err(); err != nil {
			sc.dualHull = hull
			return false, err
		}
		cv := &in.Columns[k]
		off[k] = pos
		n := cv.MaxM
		if cv.CostExact == nil {
			// Free column: the cost curve is identically zero, so every
			// integer point is a hull vertex with zero marginals.
			for i := 0; i <= n; i++ {
				marg[pos+i] = 0
				vert[pos+i] = true
			}
			pos += n + 1
			continue
		}
		hull = hull[:0]
		for m := 0; m <= n; m++ {
			cm := cv.costAt(m)
			for len(hull) >= 2 {
				i, j := int(hull[len(hull)-2]), int(hull[len(hull)-1])
				// Pop j when it lies strictly above the chord i→m, i.e.
				// slope(i,j) > slope(j,m), compared by cross product so no
				// division enters. Collinear points are kept: they are on
				// the hull, and keeping them preserves the exact cost value
				// at every kept point for the certificate.
				if (cv.costAt(j)-cv.costAt(i))*float64(m-j) > (cm-cv.costAt(j))*float64(j-i) {
					hull = hull[:len(hull)-1]
				} else {
					break
				}
			}
			hull = append(hull, int32(m))
		}
		for i := 0; i <= n; i++ {
			vert[pos+i] = false
		}
		marg[pos] = 0
		for e := 1; e < len(hull); e++ {
			i, j := int(hull[e-1]), int(hull[e])
			// For unit edges (every edge of a convex curve) the division is
			// by exactly 1.0, so the marginal is bit-equal to the plain
			// cost difference SolveMarginalGreedy uses.
			s := (cv.costAt(j) - cv.costAt(i)) / float64(j-i)
			for m := i + 1; m <= j; m++ {
				marg[pos+m] = s
			}
		}
		for _, v := range hull {
			vert[pos+int(v)] = true
		}
		pos += n + 1
	}
	sc.dualHull = hull

	// Monotone dual ascent: pop the globally cheapest remaining hull
	// marginal F times. Within a column the marginals are non-decreasing,
	// so the popped deltas form a non-decreasing sequence — each pop is one
	// λ breakpoint step, the budget residual is the subgradient (down one
	// per pop), and the last popped delta is λ*.
	h := (*hp)[:0]
	for k := range in.Columns {
		if in.Columns[k].MaxM > 0 {
			h = append(h, marginalItem{k: k, next: 1, delta: marg[off[k]+1]})
		}
	}
	*hp = h
	heap.Init(hp)
	placed := 0
	for ; placed < in.F && hp.Len() > 0; placed++ {
		if placed%dualPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		it := hp.popItem()
		a[it.k] = it.next
		if it.next < in.Columns[it.k].MaxM {
			hp.pushItem(marginalItem{k: it.k, next: it.next + 1, delta: marg[off[it.k]+it.next+1]})
		}
	}
	if placed < in.F {
		// Capacity short of the budget: let the B&B path own the
		// infeasibility diagnosis.
		return false, nil
	}

	// Optimality certificate: gap = Σ_k (c_k(a_k) − ĉ_k(a_k)) >= 0, with
	// hull-vertex columns contributing exactly 0.0 (no arithmetic at all).
	// Off-vertex values interpolate from the nearest vertex below along the
	// covering hull edge.
	primal, gap := 0.0, 0.0
	for k := range in.Columns {
		cv := &in.Columns[k]
		m := a[k]
		c := cv.costAt(m)
		primal += c
		if vert[off[k]+m] {
			continue
		}
		v := m - 1
		for !vert[off[k]+v] {
			v--
		}
		gap += c - (cv.costAt(v) + marg[off[k]+m]*float64(m-v))
	}
	if gap < 0 {
		gap = 0
	}
	if gap > gapTol*primal {
		return false, nil
	}

	// The dual priced only the budget row; a configured per-net delay cap
	// must be re-checked on the certified assignment. Raw (un-normalized)
	// spend against the raw budget is stricter than the solver's normalized
	// rows with their 1e-6 tolerance, so acceptance here is sound.
	if netCap != nil && (netCap.MaxAddedDelay > 0 || netCap.PerNet != nil) {
		spend := sc.spentMap()
		for k, m := range a {
			cv := &in.Columns[k]
			if m <= 0 || cv.DeltaC == nil {
				continue
			}
			dc := cv.DeltaC[m]
			if cv.NetLow >= 0 && netCap.budgetFor(cv.NetLow) > 0 {
				spend[cv.NetLow] += dc * cv.REffLow
			}
			if cv.NetHigh >= 0 && netCap.budgetFor(cv.NetHigh) > 0 {
				spend[cv.NetHigh] += dc * cv.REffHigh
			}
		}
		for net, s := range spend {
			if s > netCap.budgetFor(net) {
				return false, nil
			}
		}
	}
	return true, nil
}

// SolveDualAscent solves a tile by Lagrangian dual ascent with a
// branch-and-bound safety net: the certificate path returns a proven-optimal
// assignment with zero B&B nodes and zero simplex pivots; otherwise the tile
// is re-solved as the ILP-II program. sol is nil on the certificate path and
// the B&B solution when the fallback ran (fallback = true). gapTol <= 0
// selects DualGapTolDefault.
func SolveDualAscent(ctx context.Context, in *Instance, opts *ilp.Options, netCap *NetCap, gapTol float64) (Assignment, *ilp.Solution, bool, error) {
	a := make(Assignment, len(in.Columns))
	sol, st, err := NewSolveScratch().solveDual(ctx, in, copyOpts(opts), netCap, gapTol, a)
	if err != nil {
		return nil, sol, st.dualFallback, err
	}
	return a, sol, st.dualFallback, nil
}

// solveDual is the DualAscent solve on sc, mirroring solveILPI/solveILPII:
// the assignment lands in a (zeroed, length == columns) and every
// intermediate (hull arenas, heap, fallback program and searcher) comes
// from the scratch, so the warm path allocates nothing. sol is the
// fallback's B&B solution, nil on the certificate path.
func (sc *SolveScratch) solveDual(ctx context.Context, in *Instance, opts *ilp.Options, netCap *NetCap, gapTol float64, a Assignment) (*ilp.Solution, solveStats, error) {
	if gapTol <= 0 {
		gapTol = DualGapTolDefault
	}
	ok, err := dualCertify(ctx, a, in, netCap, gapTol, sc)
	if err != nil || ok {
		return nil, solveStats{}, err
	}
	sol, st, err := sc.solveILPII(in, opts, netCap, a)
	st.dualFallback = true
	return sol, st, err
}

// dualBuffers returns the dual-ascent arenas sized for this tile from the
// scratch: the per-unit marginal arena and hull-vertex flags (length total
// = Σ MaxM+1), the per-column offsets into them, the hull-stack scratch,
// and the marginal heap. Contents are unspecified and fully overwritten per
// column.
func (sc *SolveScratch) dualBuffers(total, kn int) ([]float64, []bool, []int, []int32, *marginalHeap) {
	sc.dualMarg = grow(sc.dualMarg, total)
	sc.dualVert = grow(sc.dualVert, total)
	sc.dualOff = grow(sc.dualOff, kn)
	return sc.dualMarg, sc.dualVert, sc.dualOff, sc.dualHull[:0], &sc.mheap
}

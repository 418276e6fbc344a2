// Package core implements the paper's contribution: the MDFC ("minimum
// delay, fill-constrained") PIL-Fill problem and its solvers. For every tile
// of the fixed dissection an independent instance is built from the tile's
// slack columns (package scanline), the capacitance lookup tables (package
// cap), and the nets' Elmore quantities (package rc); the prescribed fill
// amount comes from the density budgeter (package density). Solvers:
//
//	Normal         the performance-oblivious baseline of Chen et al. [3]
//	Greedy         Fig 8: whole columns in order of estimated delay cost
//	ILPI           Eqs 10–14: integer program, linearized capacitance
//	ILPII          Eqs 16–23: integer program over the exact lookup table
//	DP             exact pseudo-polynomial dynamic program (cross-check)
//	MarginalGreedy per-feature marginal-cost greedy (ablation extension)
//
// All methods place exactly the same number of features per tile, so their
// density control is identical; they differ only in *where* the fill lands
// and therefore in delay impact.
package core

import (
	"fmt"

	"pilfill/internal/cap"
	"pilfill/internal/scanline"
)

// ColumnVar is one decision variable of a tile instance: a slack column with
// its fill-count cost curve.
type ColumnVar struct {
	Col *scanline.Column

	// MaxM is the largest admissible fill count (the column capacity; always
	// within the capacitance model's validity range because the site pitch
	// exceeds the feature size).
	MaxM int

	// CostExact[m] is the delay-objective cost of placing m features
	// (r̂·ΔC_exact(m)); index 0 is 0. Nil for columns with no bounding
	// active line (their fill is free under the paper's model).
	CostExact []float64

	// LinearSlope is the per-feature cost under the Eq 6 linearization,
	// the coefficient ILP-I optimizes.
	LinearSlope float64

	// EvalUnweighted[m] / EvalWeighted[m] are the measurement cost curves
	// (r̂ with W_l = 1 and W_l = downstream sinks respectively), always using
	// the exact capacitance model. The optimization objective equals one of
	// these depending on Config.Weighted.
	EvalUnweighted []float64
	EvalWeighted   []float64

	// DeltaC[m] is the exact added coupling capacitance of m features
	// (farads); nil for unattributed columns. It aliases the capacitance
	// table's Deltas, which the table cache shares with every column of the
	// same spacing and capacity in the process: read-only.
	DeltaC []float64

	// NetLow/NetHigh are the bounding nets (-1 if none) with the upstream
	// resistance of the bounding line at the column's X; used by the
	// per-net delay-cap extension and per-net reporting.
	NetLow, NetHigh int
	RLow, RHigh     float64

	// REffLow/REffHigh are the switch-factor-scaled upstream resistances
	// (sf·R) each bounding line is actually charged per farad of added
	// coupling — the per-side terms of r̂, so per-net attribution and the
	// per-net delay caps agree with Evaluate. Equal to RLow/RHigh when
	// crosstalk-aware costing is off.
	REffLow, REffHigh float64

	// FreeRows lists the column's free site rows nearest the gap's vertical
	// center first — the order place consumes them in. Memoized at instance
	// construction (occupancy never changes between build and placement) so
	// repeated runs over the same instances skip the per-run occupancy scan;
	// nil (hand-built test instances) makes place re-scan.
	FreeRows []int
}

// costAt returns CostExact[m] handling nil (free) columns.
func (cv *ColumnVar) costAt(m int) float64 {
	if cv.CostExact == nil || m <= 0 {
		return 0
	}
	if m >= len(cv.CostExact) {
		m = len(cv.CostExact) - 1
	}
	return cv.CostExact[m]
}

// Instance is the per-tile MDFC problem: place F features into the columns.
type Instance struct {
	I, J    int
	F       int // features to place (already clamped to total capacity)
	Columns []ColumnVar
}

// TotalCapacity sums the columns' capacities.
func (in *Instance) TotalCapacity() int {
	n := 0
	for i := range in.Columns {
		n += in.Columns[i].MaxM
	}
	return n
}

// Assignment is a fill-count vector parallel to Instance.Columns.
type Assignment []int

// Valid checks the assignment against capacities and the fill total.
func (in *Instance) Valid(a Assignment) error {
	if len(a) != len(in.Columns) {
		return fmt.Errorf("core: assignment length %d, want %d", len(a), len(in.Columns))
	}
	total := 0
	for k, m := range a {
		if m < 0 || m > in.Columns[k].MaxM {
			return fmt.Errorf("core: column %d assignment %d outside [0,%d]", k, m, in.Columns[k].MaxM)
		}
		total += m
	}
	if total != in.F {
		return fmt.Errorf("core: assignment places %d features, want %d", total, in.F)
	}
	return nil
}

// Cost returns the optimization objective of an assignment (exact model).
func (in *Instance) Cost(a Assignment) float64 {
	c := 0.0
	for k, m := range a {
		c += in.Columns[k].costAt(m)
	}
	return c
}

// Evaluate returns the measured unweighted and weighted delay increases of
// an assignment under the exact capacitance model. An assignment exceeding a
// column's measurement curve indicates a capacity-extraction bug and is
// reported as an error (matching accumulatePerNet) rather than silently
// clamped, which would under-report the delay impact.
func (in *Instance) Evaluate(a Assignment) (unweighted, weighted float64, err error) {
	for k, m := range a {
		cv := &in.Columns[k]
		if m <= 0 || cv.EvalUnweighted == nil {
			continue
		}
		if m >= len(cv.EvalUnweighted) {
			return 0, 0, fmt.Errorf("core: column %d assignment %d exceeds measurement curve (max %d)",
				k, m, len(cv.EvalUnweighted)-1)
		}
		unweighted += cv.EvalUnweighted[m]
		weighted += cv.EvalWeighted[m]
	}
	return unweighted, weighted, nil
}

// buildInstance assembles the MDFC instance for one tile.
//
// For a column bounded below by line l and above by line l', inserting m
// features adds ΔC(m) of coupling capacitance that loads both lines, each at
// its own upstream resistance at the column's X. The objective coefficient
// is therefore r̂ = Σ_{bounding lines} W_l·sf_l·R_l(x) (Fig 8, line 11),
// with W_l = 1 in the non-weighted variant and sf_l the switch factor
// 1 + activity(opposite line's net) when crosstalk-aware costing is on.
//
// With the table cache on, an instance costs four allocations whatever its
// column count: the Instance, Columns sized exactly, one float64 slab that
// every column's EvalUnweighted and EvalWeighted are carved from, and one
// int slab for the FreeRows. DeltaC aliases the capacitance table's
// read-only Deltas.
func (e *Engine) buildInstance(i, j int, want int) (*Instance, error) {
	tc := &e.Tiles[i][j]
	analyses := e.Analyses
	proc := e.Cfg.Proc
	rule := e.Rule
	weighted := e.Cfg.Weighted
	// switchFactor returns the Miller multiplier seen by a victim whose
	// aggressor is the given net (-1 = boundary side, quiet).
	switchFactor := func(aggressorNet int) float64 {
		if e.Cfg.Activity == nil || aggressorNet < 0 || aggressorNet >= len(e.Cfg.Activity) {
			return 1
		}
		return 1 + e.Cfg.Activity[aggressorNet]
	}

	// Size the instance: a column with capacity c has c free rows and, when
	// attributed, two measurement curves of c+1 entries.
	nCols, nRows, nCurve := 0, 0, 0
	for k := range tc.Cols {
		col := &tc.Cols[k]
		if col.Capacity <= 0 {
			continue
		}
		nCols++
		nRows += col.Capacity
		if col.HasLow || col.HasHigh {
			nCurve += col.Capacity + 1
		}
	}
	in := &Instance{I: i, J: j, Columns: make([]ColumnVar, 0, nCols)}
	curves := make([]float64, 2*nCurve)
	rows := make([]int, nRows)
	for k := range tc.Cols {
		col := &tc.Cols[k]
		if col.Capacity <= 0 {
			continue
		}
		// Built in place in the zeroed backing array: a ColumnVar is too
		// large to build and copy per column.
		in.Columns = in.Columns[:len(in.Columns)+1]
		cv := &in.Columns[len(in.Columns)-1]
		cv.Col, cv.MaxM, cv.NetLow, cv.NetHigh = col, col.Capacity, -1, -1
		if col.HasLow || col.HasHigh {
			d := col.Spacing()
			var tbl cap.Table
			if e.cache != nil {
				tbl = e.cache.Table(proc, rule.Feature, d, col.Capacity, e.Cfg.Grounded)
			} else if e.Cfg.Grounded {
				tbl = proc.BuildGroundedTable(rule.Feature, d, col.Capacity)
			} else {
				tbl = proc.BuildTable(rule.Feature, d, col.Capacity)
			}
			if tbl.MaxM() < cv.MaxM {
				// Geometry guarantees capacity*pitch <= gap, so a shorter
				// table means the extraction and the capacitance model
				// disagree about this column. Silently clamping here would
				// under-fill the tile and skew every density and delay
				// figure downstream — surface the inconsistency instead.
				return nil, fmt.Errorf(
					"core: tile (%d,%d) column %d at x=%d: capacitance table covers %d features but extraction found capacity %d (spacing %d)",
					i, j, k, col.X, tbl.MaxM(), cv.MaxM, d)
			}
			aggLow, aggHigh := -1, -1
			if col.HasHigh {
				aggLow = col.High.Net // the high line is the low line's aggressor
			}
			if col.HasLow {
				aggHigh = col.Low.Net
			}
			rhatU, rhatW := 0.0, 0.0
			if col.HasLow {
				r, w := analyses[col.Low.Net].At(col.Low.Seg, col.X)
				cv.NetLow, cv.RLow = col.Low.Net, r
				sf := switchFactor(aggLow)
				cv.REffLow = r * sf
				rhatU += cv.REffLow
				rhatW += cv.REffLow * float64(w)
			}
			if col.HasHigh {
				r, w := analyses[col.High.Net].At(col.High.Seg, col.X)
				cv.NetHigh, cv.RHigh = col.High.Net, r
				sf := switchFactor(aggHigh)
				cv.REffHigh = r * sf
				rhatU += cv.REffHigh
				rhatW += cv.REffHigh * float64(w)
			}
			n := cv.MaxM + 1
			// Shared with the table (and, through the cache, with every
			// column of this spacing and capacity): read-only.
			cv.DeltaC = tbl.Deltas[:n:n]
			cv.EvalUnweighted, curves = curves[:n:n], curves[n:]
			cv.EvalWeighted, curves = curves[:n:n], curves[n:]
			for m := 1; m < n; m++ {
				dc := cv.DeltaC[m]
				cv.EvalUnweighted[m] = rhatU * dc
				cv.EvalWeighted[m] = rhatW * dc
			}
			if weighted {
				cv.CostExact = cv.EvalWeighted
				cv.LinearSlope = rhatW * proc.DeltaLinear(1, rule.Feature, d)
			} else {
				cv.CostExact = cv.EvalUnweighted
				cv.LinearSlope = rhatU * proc.DeltaLinear(1, rule.Feature, d)
			}
		}
		cv.FreeRows = e.freeRowsCenterOut(rows[:0:cv.MaxM], col)
		rows = rows[cv.MaxM:]
	}
	capTotal := in.TotalCapacity()
	if want > capTotal {
		want = capTotal
	}
	if want < 0 {
		want = 0
	}
	in.F = want
	return in, nil
}

package scanline

import (
	"math/rand"
	"reflect"
	"testing"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// randomStripeLayout draws a layout whose tiles are not a whole number of
// site pitches wide (so site columns straddle tile boundaries) and whose
// wires run past the die edges and across many tile columns (so lines are
// clipped at stripe and die edges).
func randomStripeLayout(rng *rand.Rand) (*layout.Layout, *layout.Dissection, *layout.Occupancy, error) {
	r := 1 + rng.Intn(3)
	tile := int64(2100 + 100*rng.Intn(30)) // pitch 400: mostly not a multiple
	ox, oy := int64(rng.Intn(700)), int64(rng.Intn(700))
	w := tile*int64(r+rng.Intn(4)) - int64(rng.Intn(int(tile)/2))
	h := tile*int64(r+rng.Intn(4)) - int64(rng.Intn(int(tile)/2))
	die := geom.Rect{X1: ox, Y1: oy, X2: ox + w, Y2: oy + h}
	var wires []geom.Rect
	for k := rng.Intn(40); k > 0; k-- {
		y := oy - 300 + int64(rng.Intn(int(h)+600))
		x1 := ox - 2000 + int64(rng.Intn(int(w)+2000))
		x2 := x1 + 400 + int64(rng.Intn(int(w)))
		// Snap some wire ends to tile boundaries so clipping lands exactly
		// on a stripe edge.
		if rng.Intn(3) == 0 {
			x2 = ox + tile*int64(1+rng.Intn(int(w/tile)+1))
		}
		wires = append(wires, geom.Rect{X1: x1, Y1: y, X2: x2, Y2: y + 100 + int64(rng.Intn(300))})
	}
	l := buildLayout(die, wires)
	d, err := layout.NewDissection(die, tile*int64(r), r)
	if err != nil {
		return nil, nil, nil, err
	}
	grid, err := layout.NewSiteGrid(die, rule)
	if err != nil {
		return nil, nil, nil, err
	}
	return l, d, layout.NewOccupancy(l, grid, 0), nil
}

// TestParallelExtractMatchesSerial checks the stripe-parallel arena build
// against the original whole-layout sweep: identical columns, in identical
// order, for every definition and worker count.
func TestParallelExtractMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	straddled := 0
	for trial := 0; trial < 150; trial++ {
		l, d, occ, err := randomStripeLayout(rng)
		if err != nil {
			t.Fatal(err)
		}
		if d.Tile%rule.Pitch() != 0 {
			straddled++
		}
		for _, def := range []Def{DefI, DefII, DefIII} {
			want, err := extractSerial(l, 0, d, occ, def)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 7} {
				got, err := Extract(l, 0, d, occ, def, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v workers %d: parallel extraction differs from the serial sweep (die %v, tile %d)",
						trial, def, workers, d.Die, d.Tile)
				}
			}
		}
	}
	if straddled == 0 {
		t.Fatal("no trial had tiles straddling site columns")
	}
}

// TestExtractColsAreCapacityLimited guards the arena sharing: appending to
// one tile's columns must never overwrite its neighbour's.
func TestExtractColsAreCapacityLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l, d, occ, err := randomStripeLayout(rng)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := Extract(l, 0, d, occ, DefIII, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tiles {
		for j := range tiles[i] {
			if cols := tiles[i][j].Cols; cap(cols) != len(cols) {
				t.Fatalf("tile (%d,%d) Cols len %d cap %d", i, j, len(cols), cap(cols))
			}
		}
	}
}

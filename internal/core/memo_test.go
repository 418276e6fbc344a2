package core

import (
	"math/rand"
	"sync"
	"testing"

	"pilfill/internal/scanline"
)

// fpColumn builds a synthetic attributed column for fingerprint tests.
func fpColumn(maxM, netLow, netHigh int, rl, rh, scale float64) ColumnVar {
	n := maxM + 1
	cost := make([]float64, n)
	dc := make([]float64, n)
	for m := 1; m < n; m++ {
		dc[m] = scale * float64(m*m) * 1e-18
		cost[m] = dc[m] * (rl + rh)
	}
	return ColumnVar{
		MaxM: maxM, CostExact: cost, DeltaC: dc, LinearSlope: scale,
		NetLow: netLow, NetHigh: netHigh, REffLow: rl, REffHigh: rh,
	}
}

func fpKey(t *testing.T, in *Instance, method Method) memoKey {
	t.Helper()
	key, _, _ := fingerprintInstance(nil, nil, in, fingerprintConfig{method: method})
	return key
}

func TestFingerprintTranslationInvariant(t *testing.T) {
	// Two copies of the same tile pattern at different positions, with
	// different absolute net indices (same relative order) and different
	// free-row lists, must hash identically: position is exactly what the
	// memo abstracts away.
	a := &Instance{I: 0, J: 0, F: 3, Columns: []ColumnVar{
		fpColumn(3, 2, 5, 100, 200, 1.5),
		fpColumn(2, 5, -1, 200, 0, 0.5),
	}}
	a.Columns[0].FreeRows = []int{4, 5, 3}
	b := &Instance{I: 7, J: 11, F: 3, Columns: []ColumnVar{
		fpColumn(3, 12, 15, 100, 200, 1.5),
		fpColumn(2, 15, -1, 200, 0, 0.5),
	}}
	b.Columns[0].FreeRows = []int{90, 91, 89}
	if fpKey(t, a, ILPII) != fpKey(t, b, ILPII) {
		t.Error("translated pattern copies hash differently")
	}

	// Same geometry but different net sharing (column 1 bound by a new net
	// rather than column 0's) must hash differently: the per-net cap rows
	// would differ.
	c := &Instance{I: 0, J: 0, F: 3, Columns: []ColumnVar{
		fpColumn(3, 2, 5, 100, 200, 1.5),
		fpColumn(2, 7, -1, 200, 0, 0.5),
	}}
	if fpKey(t, a, ILPII) == fpKey(t, c, ILPII) {
		t.Error("different net sharing hashes equal")
	}

	// Any cost-curve change must change the key.
	d := &Instance{I: 0, J: 0, F: 3, Columns: []ColumnVar{
		fpColumn(3, 2, 5, 100, 200, 1.5),
		fpColumn(2, 5, -1, 200, 0, 0.5),
	}}
	d.Columns[1].CostExact[1] *= 1.0000001
	if fpKey(t, a, ILPII) == fpKey(t, d, ILPII) {
		t.Error("perturbed cost curve hashes equal")
	}

	// Different methods and different budgets must never share a key.
	if fpKey(t, a, ILPII) == fpKey(t, a, Greedy) {
		t.Error("methods share a key")
	}
	e := &Instance{I: 0, J: 0, F: 2, Columns: a.Columns}
	if fpKey(t, a, ILPII) == fpKey(t, e, ILPII) {
		t.Error("budgets share a key")
	}
}

func TestFingerprintNoCollisions(t *testing.T) {
	// 500 structurally random instances: every key distinct. Each instance
	// embeds fresh random curves, so a collision would mean the serialization
	// conflates distinct patterns.
	rng := rand.New(rand.NewSource(17))
	seen := make(map[memoKey]int)
	for trial := 0; trial < 500; trial++ {
		cols := 1 + rng.Intn(6)
		in := &Instance{I: rng.Intn(10), J: rng.Intn(10)}
		for c := 0; c < cols; c++ {
			maxM := 1 + rng.Intn(4)
			netLow, netHigh := rng.Intn(8), -1
			if rng.Intn(2) == 0 {
				netHigh = rng.Intn(8)
			}
			in.Columns = append(in.Columns,
				fpColumn(maxM, netLow, netHigh, 50+900*rng.Float64(), 50+900*rng.Float64(), rng.Float64()))
		}
		in.F = rng.Intn(in.TotalCapacity() + 1)
		key := fpKey(t, in, ILPII)
		if prev, dup := seen[key]; dup {
			t.Fatalf("trial %d collides with trial %d", trial, prev)
		}
		seen[key] = trial
	}
}

func TestMemoSecondRunAllHits(t *testing.T) {
	l, d := smallLayout(t)
	memo := NewSolveMemo()
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	_, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	for _, m := range []Method{Greedy, ILPII, DP} {
		memo.Reset()
		cold, err := eng.Run(m, instances)
		if err != nil {
			t.Fatal(err)
		}
		// A cold run may still hit when tiles within the layout repeat a
		// pattern — that's the dedup working — but every tile must consult
		// the memo and at least the first pattern must miss.
		if cold.MemoHits+cold.MemoMisses != cold.Tiles || cold.MemoMisses == 0 {
			t.Errorf("%v cold run: hits %d misses %d over %d tiles", m, cold.MemoHits, cold.MemoMisses, cold.Tiles)
		}
		if s := memo.Stats(); s.Entries != int(s.Stored) || s.Entries == 0 {
			t.Errorf("%v cold run: stats %+v", m, s)
		}
		warm, err := eng.Run(m, instances)
		if err != nil {
			t.Fatal(err)
		}
		if warm.MemoHits != warm.Tiles || warm.MemoMisses != 0 {
			t.Errorf("%v warm run: hits %d misses %d, want %d hits", m, warm.MemoHits, warm.MemoMisses, warm.Tiles)
		}
		resultsIdentical(t, cold, warm, m.String()+"/memo-warm")
	}

	// The Normal baseline is position-seeded and must bypass the memo.
	memo.Reset()
	res, err := eng.Run(Normal, instances)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits != 0 || res.MemoMisses != 0 {
		t.Errorf("Normal touched the memo: hits %d misses %d", res.MemoHits, res.MemoMisses)
	}
	if s := memo.Stats(); s.Hits+s.Misses+s.Stored != 0 {
		t.Errorf("Normal touched the memo: %+v", s)
	}
}

func TestMemoOnOffBitIdentical(t *testing.T) {
	l, d := smallLayout(t)
	newEng := func(cfg Config) *Engine {
		t.Helper()
		eng, err := NewEngine(l, d, testRule, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	off := newEng(Config{Layer: 0, Seed: 42, NoSolveMemo: true})
	on := newEng(Config{Layer: 0, Seed: 42, Memo: NewSolveMemo()})
	_, budget := buildEngine(t, false, scanline.DefIII)
	insOff := mustInstances(t, off, budget)
	insOn := mustInstances(t, on, budget)
	for _, m := range []Method{Greedy, ILPI, ILPII, DP, MarginalGreedy, GreedyCapped, DualAscent} {
		rOff, err := off.Run(m, insOff)
		if err != nil {
			t.Fatal(err)
		}
		if rOff.MemoHits != 0 || rOff.MemoMisses != 0 {
			t.Errorf("%v: memo-off run reports memo traffic", m)
		}
		// Twice with the memo on: cold (stores) then warm (replays).
		for pass := 0; pass < 2; pass++ {
			rOn, err := on.Run(m, insOn)
			if err != nil {
				t.Fatal(err)
			}
			resultsIdentical(t, rOff, rOn, m.String()+"/memo-on")
			if rOff.ILPNodes != rOn.ILPNodes || rOff.LPPivots != rOn.LPPivots {
				t.Errorf("%v pass %d: solver work differs: nodes %d/%d pivots %d/%d",
					m, pass, rOff.ILPNodes, rOn.ILPNodes, rOff.LPPivots, rOn.LPPivots)
			}
		}
	}
}

func TestMemoConcurrentRunsShareMemo(t *testing.T) {
	// Several engines hammering one memo concurrently (exercised under
	// `make race`) must all produce the baseline result.
	l, d := smallLayout(t)
	memo := NewSolveMemo()
	base, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, NoSolveMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	_, budget := buildEngine(t, false, scanline.DefIII)
	want, err := base.Run(ILPII, mustInstances(t, base, budget))
	if err != nil {
		t.Fatal(err)
	}

	const runners = 4
	results := make([]*Result, runners)
	errs := make([]error, runners)
	var wg sync.WaitGroup
	for r := 0; r < runners; r++ {
		eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, Memo: memo, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		instances := mustInstances(t, eng, budget)
		wg.Add(1)
		go func(r int, eng *Engine, instances []*Instance) {
			defer wg.Done()
			results[r], errs[r] = eng.Run(ILPII, instances)
		}(r, eng, instances)
	}
	wg.Wait()
	for r := 0; r < runners; r++ {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		resultsIdentical(t, want, results[r], "concurrent")
	}
	if s := memo.Stats(); s.Hits == 0 || s.Entries == 0 {
		t.Errorf("memo never shared: %+v", s)
	}
}

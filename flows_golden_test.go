package pilfill

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// flowDigest condenses every deterministic Result field of a flow run into
// one comparable line: the fill hash (FNV-1a over little-endian col, row),
// an FNV-1a hash of the PerNet bits, the objective bits, the counts and the
// search effort.
func flowDigest(rep *Report) string {
	r := rep.Result
	fill := fnv.New64a()
	var buf [16]byte
	for _, f := range r.Fill.Fills {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(int64(f.Col)))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(f.Row)))
		fill.Write(buf[:])
	}
	perNet := fnv.New64a()
	for _, d := range r.PerNet {
		binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(d))
		perNet.Write(buf[:8])
	}
	return fmt.Sprintf("fill=%016x pernet=%016x u=%016x w=%016x req=%d placed=%d nodes=%d pivots=%d repaired=%d dropped=%d",
		fill.Sum64(), perNet.Sum64(), math.Float64bits(r.Unweighted), math.Float64bits(r.Weighted),
		r.Requested, r.Placed, r.ILPNodes, r.LPPivots, r.IncumbentsRepaired, r.IncumbentsDropped)
}

// flowGolden holds the budgeted and MVDC flows' digests on smallSession.
// They were recorded from each flow's own serial tile loop, before both
// moved onto Engine.RunContext's loop, so any drift there shows here.
var flowGolden = map[string]string{
	"RunBudgeted(0.01)": "fill=4f6d407ad61e1c3e pernet=3811fed0477a2f59 u=3d24d0c05ea9cd4b w=3d30c4100512ff1c req=7960 placed=6576 nodes=365323 pivots=11210925 repaired=24 dropped=211",
	"RunBudgeted(0)":    "fill=13462b2fbaaf10b5 pernet=584587700192ac78 u=3c371e9328c79444 w=3c4e72f2691e604b req=7960 placed=1139 nodes=568 pivots=3995 repaired=0 dropped=535",
	"RunMVDC(1e-16)":    "fill=3e2e9dcf810d8306 pernet=6a15e6d5372fa2c3 u=3d218e3484646f1c w=3d2bb488e0c917ee req=7597 placed=7597 nodes=0 pivots=0 repaired=0 dropped=0",
	"RunMVDC(0)":        "fill=7cb0bbc5ff159b72 pernet=1873f8b64196aaa5 u=0000000000000000 w=0000000000000000 req=964 placed=964 nodes=0 pivots=0 repaired=0 dropped=0",
}

// TestFlowsGolden checks every flow serially and at Workers: 4, with the
// memo on and off. RunBudgeted(0.01) spends about half a minute in
// branch-and-bound, so it runs in two of the four configurations, which
// still cover serial and parallel, memo on and memo off.
func TestFlowsGolden(t *testing.T) {
	flows := []struct {
		name  string
		heavy bool
		run   func(*Session) (*Report, error)
	}{
		{"RunBudgeted(0.01)", true, func(s *Session) (*Report, error) { return s.RunBudgeted(0.01) }},
		{"RunBudgeted(0)", false, func(s *Session) (*Report, error) { return s.RunBudgeted(0) }},
		{"RunMVDC(1e-16)", false, func(s *Session) (*Report, error) { rep, _, err := s.RunMVDC(1e-16); return rep, err }},
		{"RunMVDC(0)", false, func(s *Session) (*Report, error) { rep, _, err := s.RunMVDC(0); return rep, err }},
	}
	configs := []struct {
		name    string
		workers int
		noMemo  bool
		heavy   bool
	}{
		{"serial", 0, false, true},
		{"serial-nomemo", 0, true, false},
		{"workers4", 4, false, false},
		{"workers4-nomemo", 4, true, true},
	}
	for _, c := range configs {
		s := smallSessionWith(t, func(o *Options) {
			o.Workers = c.workers
			o.NoSolveMemo = c.noMemo
		})
		for _, f := range flows {
			if f.heavy && !c.heavy {
				continue
			}
			rep, err := f.run(s)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, f.name, err)
			}
			if got, want := flowDigest(rep), flowGolden[f.name]; got != want {
				t.Errorf("%s %s:\n got %s\nwant %s", c.name, f.name, got, want)
			}
		}
	}
}

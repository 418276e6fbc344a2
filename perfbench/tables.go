package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"pilfill"
	"pilfill/internal/density"
	"pilfill/internal/harness"
	"pilfill/internal/layout"
	"pilfill/internal/testcases"
)

// tablePoint is one (testcase, W) grid point of the paper's Tables 1 and 2
// at r = 2; each runs under both objectives.
type tablePoint struct {
	Case string
	W    int
}

var (
	tablePoints  = []tablePoint{{"T1", 32}, {"T1", 20}, {"T2", 32}, {"T2", 20}}
	tableR       = 2
	tableMethods = []pilfill.Method{pilfill.Normal, pilfill.Greedy, pilfill.ILPI, pilfill.ILPII, pilfill.DP, pilfill.DualAscent}
	// exactMethods must agree on the optimized objective at every point.
	exactMethods = []pilfill.Method{pilfill.ILPII, pilfill.DP, pilfill.DualAscent}
)

// paperTables runs the paper's table grid through pilfill.NewSession and
// Session.Run with the harness density targets.
type paperTables struct {
	seed int64
	defs map[string][]byte
	rule layout.FillRule

	sessions []*pilfill.Session
	parseS   float64
	sessionS float64
	m        map[string]float64 // result counters, filled by run
}

func setupPaperTables(seed int64, _ *reference) (job, error) {
	p := &paperTables{seed: seed, defs: map[string][]byte{}, rule: pilfill.DefaultRuleT1T2()}
	for name, gen := range map[string]func() (*layout.Layout, error){"T1": pilfill.GenerateT1, "T2": pilfill.GenerateT2} {
		l, err := gen()
		if err != nil {
			return nil, err
		}
		permuteNets(l, seed)
		if p.defs[name], err = encodeDEF(l); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *paperTables) run(led *ledger) (int, error) {
	p.m = map[string]float64{}
	layouts := map[string]*layout.Layout{}
	for _, name := range []string{"T1", "T2"} {
		if err := led.stage("def.parse", func() error {
			t := time.Now()
			l, err := pilfill.LoadDEF(bytes.NewReader(p.defs[name]))
			p.parseS += time.Since(t).Seconds()
			layouts[name] = l
			return err
		}); err != nil {
			return 0, err
		}
	}
	fills := fnv.New64a()
	taus := fnv.New64a()
	placed, tiles := 0, 0
	for _, pt := range tablePoints {
		for _, weighted := range []bool{false, true} {
			var s *pilfill.Session
			if err := led.stage("pilfill.session", func() error {
				t := time.Now()
				var err error
				s, err = pilfill.NewSession(layouts[pt.Case], pilfill.Options{
					Window: testcases.WindowNM(pt.W), R: tableR, Rule: p.rule, Weighted: weighted,
					TargetMinDensity: harness.TargetMinDensity, MaxDensity: harness.MaxDensity,
					Seed: 1, ILPNodeLimit: 20000, Workers: solveThreads(),
				})
				p.sessionS += time.Since(t).Seconds()
				return err
			}); err != nil {
				return 0, err
			}
			p.sessions = append(p.sessions, s)
			exact := map[pilfill.Method]float64{}
			for _, m := range tableMethods {
				var rep *pilfill.Report
				if err := led.stage("core.run", func() error {
					var err error
					rep, err = s.Run(m)
					return err
				}); err != nil {
					return 0, err
				}
				if err := led.stage("check", func() error {
					res := rep.Result
					if err := checkResult(res, s.Engine, len(s.Instances)); err != nil {
						return fmt.Errorf("%s/%d/%d weighted=%v: %w", pt.Case, pt.W, tableR, weighted, err)
					}
					addResult(p.m, res)
					tiles += res.Tiles
					placed += res.Placed
					exact[m] = res.Unweighted
					if weighted {
						exact[m] = res.Weighted
					}
					g := summarize(res)
					fmt.Fprintf(fills, "%s/%d/%v/%v:%s;", pt.Case, pt.W, weighted, m, g.FillHash)
					fmt.Fprintf(taus, "%s;", g.Tau)
					return nil
				}); err != nil {
					return 0, err
				}
			}
			if err := led.stage("check", func() error { return agree(exact, pt, weighted) }); err != nil {
				return 0, err
			}
		}
	}
	// Every run's fill hash and τ bits, folded in run order.
	digest := golden{fmt.Sprintf("%016x", fills.Sum64()), placed, fmt.Sprintf("%016x", taus.Sum64())}
	err := led.stage("check", func() error {
		if p.seed != defaultSeed {
			return nil
		}
		return goldenPaperTables.compare(digest)
	})
	return tiles, err
}

// agree checks that the exact methods reach the same optimum (relative
// 1e-9) at one grid point.
func agree(tau map[pilfill.Method]float64, pt tablePoint, weighted bool) error {
	ref := tau[pilfill.ILPII]
	for _, m := range exactMethods {
		if !relClose(tau[m], ref, 1e-9) {
			return fmt.Errorf("%s/%d/%d weighted=%v: %v τ %g != ILP-II τ %g", pt.Case, pt.W, tableR, weighted, m, tau[m], ref)
		}
	}
	return nil
}

func (p *paperTables) layers(m map[string]float64) error {
	for k, v := range p.m {
		m[k] = v
	}
	for _, name := range []string{"T1", "T2"} {
		m["def.bytes"] += float64(len(p.defs[name]))
	}
	m["def.parse_s"] = p.parseS
	m["pilfill.session_s"] = p.sessionS
	for _, s := range p.sessions {
		eng := s.Engine
		m["layout.sites"] += float64(eng.Grid.Cols * eng.Grid.Rows)
		m["rc.nets"] += float64(len(s.Layout.Nets))
		m["rc.analyze_s"] += eng.Prep.Analyze.Seconds()
		m["scanline.extract_s"] += eng.Prep.Extract.Seconds()
		m["scanline.columns"] += float64(countColumns(eng))
		m["core.engine_s"] += (eng.Prep.Total - eng.Prep.Build).Seconds()
		m["core.build_s"] += eng.Prep.Build.Seconds()
		m["core.instances"] += float64(len(s.Instances))
		m["density.budget_features"] += float64(s.Budget.Total())
		occ, err := timeOccupancy(s.Layout, p.rule)
		if err != nil {
			return err
		}
		m["layout.occupancy_s"] += occ
		// NewSession's Monte-Carlo budgeting, re-timed on the same grid.
		t := time.Now()
		if _, _, err := density.MonteCarlo(s.Grid, density.MonteCarloOptions{
			TargetMin: s.Target, MaxDensity: s.Opts.MaxDensity, Seed: s.Opts.Seed,
		}); err != nil {
			return err
		}
		m["density.budget_s"] += time.Since(t).Seconds()
	}
	last := p.sessions[len(p.sessions)-1]
	cs := last.CacheStats()
	m["cap.cache_hit_ratio"] = ratio(cs.Hits, cs.Misses)
	m["core.memo_entries"] = float64(last.MemoStats().Entries)
	return nil
}

func (p *paperTables) close() usage { return usage{} }

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"pilfill"
	"pilfill/internal/cluster"
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/server"
)

// clusterJob is the cluster_scatter chip job: the chip_dedup chip as inline
// DEF, a 4 x 1 region grid, ILP-II, one solving thread per region job, and
// the ChipJob defaults for everything else.
func clusterJob(def []byte) cluster.ChipJob {
	return cluster.ChipJob{
		DEF: string(def), GX: 4, GY: 1, Method: "ILP-II",
		Options: server.SubmitOptions{Workers: 1},
	}
}

// clusterDEF is the chip in generator order for every seed. Region
// idempotency keys hash the stripe DEFs, and the coordinator places regions
// by rendezvous hash of the keys, so a seed-dependent net order would make
// the workers' load split (2:2, 3:1 or 4:0 regions) a per-seed lottery.
func clusterDEF() ([]byte, error) {
	l, _, err := chipLayout(defaultSeed)
	if err != nil {
		return nil, err
	}
	return encodeDEF(l)
}

// clusterWorkers is the number of pilfilld worker processes, each with one
// queue worker: two solving threads in all.
const clusterWorkers = 2

// reference is the single-process result the clustered merge must equal,
// computed by cluster.RunChipLocal in its own cold process.
type reference struct {
	Report *cluster.MergedReport `json:"report"`
	LocalS float64               `json:"local_s"`
}

func runReference() (*reference, error) {
	if err := assertCold(); err != nil {
		return nil, err
	}
	def, err := clusterDEF()
	if err != nil {
		return nil, err
	}
	prep, err := cluster.PrepareChip(clusterJob(def))
	if err != nil {
		return nil, err
	}
	t := time.Now()
	rep, err := cluster.RunChipLocal(context.Background(), prep)
	if err != nil {
		return nil, err
	}
	return &reference{Report: rep, LocalS: time.Since(t).Seconds()}, nil
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	if ref.Report == nil {
		return nil, fmt.Errorf("reference %s: no report", path)
	}
	return &ref, nil
}

// clusterScatter prepares the chip with cluster.PrepareChip and scatters it
// with a default cluster.Coordinator to two fresh worker processes over
// loopback HTTP.
type clusterScatter struct {
	def     []byte
	ref     *reference
	workers []*worker
	coord   *cluster.Coordinator

	prep     *cluster.Prep
	rep      *cluster.MergedReport
	prepareS float64
	scatterS float64
}

func setupClusterScatter(_ int64, ref *reference) (job, error) {
	if ref == nil {
		return nil, errors.New("cluster_scatter needs the single-process reference")
	}
	def, err := clusterDEF()
	if err != nil {
		return nil, err
	}
	c := &clusterScatter{ref: ref, def: def}
	// Workers are addressed by fixed names that the client's dialer maps to
	// their loopback listeners. The coordinator places regions by
	// rendezvous hash of worker URL and region key, so ephemeral-port URLs
	// would redraw the region-to-worker split (2:2, 3:1 or 4:0) on every
	// run.
	urls := make([]string, clusterWorkers)
	addrs := map[string]string{}
	for i := range urls {
		w, err := startWorker()
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start worker: %w", err)
		}
		c.workers = append(c.workers, w)
		host := fmt.Sprintf("worker-%d:80", i)
		urls[i] = "http://" + host
		addrs[host] = w.addr
	}
	var dialer net.Dialer
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("unknown worker %s", addr)
			}
			return dialer.DialContext(ctx, network, real)
		},
	}}
	if c.coord, err = cluster.New(cluster.Config{Workers: urls, Client: client}); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *clusterScatter) run(led *ledger) (int, error) {
	var err error
	if err = led.stage("cluster.prepare", func() error {
		t := time.Now()
		c.prep, err = cluster.PrepareChip(clusterJob(c.def))
		c.prepareS = time.Since(t).Seconds()
		return err
	}); err != nil {
		return 0, err
	}
	if err = led.stage("cluster.scatter", func() error {
		t := time.Now()
		c.rep, err = c.coord.RunChip(context.Background(), c.prep)
		c.scatterS = time.Since(t).Seconds()
		return err
	}); err != nil {
		return 0, err
	}
	err = led.stage("check", func() error { return c.check() })
	return c.rep.Tiles, err
}

// check compares the merged report with the single-process reference
// field by field (delay totals by their bits) and with the recorded golden
// values (the inputs are the same for every seed).
func (c *clusterScatter) check() error {
	got, want := c.rep, c.ref.Report
	type key struct {
		Method                                                  string
		Regions, Tiles, Requested, Placed, Nodes, Pivots, Fills int
		Repaired, Dropped                                       int
		Unweighted, Weighted, Achieved                          uint64
		FillHash, PerNetHash                                    string
	}
	k := func(r *cluster.MergedReport) key {
		return key{r.Method, r.Regions, r.Tiles, r.Requested, r.Placed, r.ILPNodes, r.LPPivots, r.FillCount,
			r.Repaired, r.Dropped, math.Float64bits(r.Unweighted), math.Float64bits(r.Weighted),
			math.Float64bits(r.BudgetAchievedMin), r.FillHash, r.PerNetHash}
	}
	if k(got) != k(want) {
		return fmt.Errorf("merged report %+v differs from the RunChipLocal reference %+v", k(got), k(want))
	}
	if got.Placed > got.Requested || got.FillCount != got.Placed || got.Regions != len(c.prep.Plan.Regions) {
		return fmt.Errorf("merged report placed %d of %d (%d fills) over %d regions", got.Placed, got.Requested, got.FillCount, got.Regions)
	}
	return goldenClusterScatter.compare(golden{got.FillHash, got.Placed, tauBits(got.Unweighted, got.Weighted)})
}

func (c *clusterScatter) layers(m map[string]float64) error {
	rep, prep := c.rep, c.prep
	m["def.bytes"] = float64(len(c.def))
	m["cluster.prepare_s"] = c.prepareS
	m["cluster.scatter_s"] = c.scatterS
	st := c.coord.Stats()
	m["cluster.attempts"] = st.Attempts
	m["cluster.retries"] = st.Retries
	m["cluster.hedges"] = st.Hedges
	m["shard.regions"] = float64(len(prep.Plan.Regions))
	owned, halo := 0, 0
	for _, r := range prep.Plan.Regions {
		owned += r.Owned.Tiles()
		halo += r.Halo.Tiles()
	}
	m["shard.halo_ratio"] = float64(halo)/float64(owned) - 1
	m["core.instances"] = float64(rep.Tiles)
	m["core.placed_ratio"] = float64(rep.Placed) / float64(rep.Requested)
	m["ilp.nodes"] = float64(rep.ILPNodes)
	m["lp.pivots"] = float64(rep.LPPivots)
	m["density.budget_features"] = float64(prep.Budget.Total())
	m["rc.nets"] = float64(len(prep.Layout.Nets))

	var hits, lookups float64
	for _, w := range c.workers {
		st, err := w.stats()
		if err != nil {
			return err
		}
		m["server.submits"] += float64(st.Submits)
		m["server.polls"] += float64(st.Polls)
		m["server.useful_polls"] += float64(st.UsefulPolls)
		m["server.errors"] += float64(st.Errors)
		m["server.bytes_in"] += float64(st.BytesIn)
		m["server.bytes_out"] += float64(st.BytesOut)
		m["server.handler_s"] += st.HandlerS
		m["jobqueue.rejected"] += float64(st.Rejected)
		for _, j := range st.Jobs {
			m["jobqueue.wait_s"] += j.WaitS
			m["jobqueue.run_s"] += j.RunS
			m["cluster.poll_lag_s"] += j.PollLagS
			m["core.run_s"] += j.WallS
			m["core.solve_cpu_s"] += j.SolveCPUS
			m["core.evaluate_s"] += j.EvaluateS
			m["core.place_s"] += j.PlaceS
			m["core.engine_s"] += j.PreprocessS
			m["core.longest_tile_s"] = math.Max(m["core.longest_tile_s"], j.LongestTileS)
			hits += float64(j.MemoHits)
			lookups += float64(j.MemoHits + j.MemoMisses)
		}
	}
	m["server.useful_poll_ratio"] = m["server.useful_polls"] / m["server.polls"]
	if lookups > 0 {
		m["core.memo_hit_ratio"] = hits / lookups
	}

	// PrepareChip's parse, occupancy and FFT budgeting, re-timed on the
	// same input outside the ledger.
	t := time.Now()
	l, err := pilfill.LoadDEF(bytes.NewReader(c.def))
	if err != nil {
		return err
	}
	m["def.parse_s"] = time.Since(t).Seconds()
	t = time.Now()
	grid, err := layout.NewSiteGrid(l.Die, prep.Rule)
	if err != nil {
		return err
	}
	occ := layout.NewOccupancy(l, grid, prep.Job.Layer)
	m["layout.occupancy_s"] = time.Since(t).Seconds()
	m["layout.sites"] = float64(grid.Cols * grid.Rows)
	kind, err := cluster.ParseKernel(prep.Job.Kernel)
	if err != nil {
		return err
	}
	t = time.Now()
	_, _, err = density.FFTBudget(density.NewGrid(l, prep.Dis, occ, prep.Job.Layer), density.NewKernel(kind, prep.Job.R),
		density.FFTBudgetOptions{TargetMin: prep.Job.TargetMin, MaxDensity: prep.Job.MaxDensity})
	m["density.budget_s"] = time.Since(t).Seconds()
	return err
}

// close stops the coordinator and the worker processes and returns the
// workers' CPU time and summed peak RSS.
func (c *clusterScatter) close() usage {
	if c.coord != nil {
		c.coord.Close()
	}
	var u usage
	for _, w := range c.workers {
		ru, err := w.stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			continue
		}
		u.add(ru)
	}
	return u
}

// Command perfbench is the repository's end-to-end benchmark. It drives the
// library through its public functions on three workloads (see README.md)
// and prints one JSON result line:
//
//	python3 perfbench/run.py --workload chip_dedup --seed 1 --seconds 30 --trace 0
//
// run.py builds this program and tracecheck inside the checkout, then runs
// it with the same flags. The parent process measures nothing itself: it
// starts one fresh child process per iteration (every run is cold — the
// solve memo, the capacitance-table cache and worker idempotency records are
// process-wide), collects each child's sample and reports medians. With --trace 1 it alternates untraced and traced children and
// reports the per-layer metrics instead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed keeps every generated layout in generator order; golden
// values are recorded for it. Any other seed permutes the net order.
const defaultSeed = 1

// minRuns is the fewest untraced children a run measures, even past its
// time budget; hardLimit bounds a whole invocation.
const (
	minRuns   = 3
	hardLimit = 170 * time.Second
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: chip_dedup, paper_tables, cluster_scatter, or all")
		seed     = flag.Int64("seed", defaultSeed, "workload seed (1 = generator net order; goldens apply)")
		seconds  = flag.Float64("seconds", 10, "measurement time budget in seconds")
		traceF   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir   = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for reports, traces and references")
		checker  = flag.String("tracecheck", "", "tracecheck binary used to lint traced runs")
		childF   = flag.Bool("child", false, "run one cold iteration and print its sample (internal)")
		refF     = flag.Bool("reference", false, "run the cluster single-process reference and print it (internal)")
		refPath  = flag.String("ref", "", "cluster reference file for the output check (internal)")
		traceOut = flag.String("trace-out", "", "Chrome trace path for a traced child (internal)")
		workerF  = flag.Bool("worker", false, "serve one cluster worker until stdin closes (internal)")
	)
	flag.Parse()
	if *traceF != 0 && *traceF != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(solveThreads())
	if *workerF {
		if err := runWorker(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *name == "all" {
		// Every workload in turn, each with its own time budget; exits 1 on
		// any failed run or output-check mismatch.
		ok := true
		for _, n := range workloadOrder {
			fmt.Printf("== %s\n", n)
			p := &parent{workload: n, seed: *seed, traced: *traceF == 1,
				budget: time.Duration(*seconds * float64(time.Second)),
				outDir: *outDir, checker: *checker, start: time.Now()}
			res, err := p.run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
				os.Exit(1)
			}
			ok = ok && res.Correct
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: a run failed or an output check did not match")
			os.Exit(1)
		}
		return
	}
	setup, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	switch {
	case *childF:
		s := runChild(setup, *name, *seed, *traceF == 1, *refPath, *traceOut)
		emit(s)
	case *refF:
		ref, err := runReference()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reference: %v\n", err)
			os.Exit(1)
		}
		emit(ref)
	default:
		p := &parent{
			workload: *name, seed: *seed, traced: *traceF == 1,
			budget: time.Duration(*seconds * float64(time.Second)),
			outDir: *outDir, checker: *checker, start: time.Now(),
		}
		res, err := p.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		emit(res)
	}
}

// solveThreads is the benchmark's parallelism: at most two solving threads,
// fewer on a one-CPU host.
func solveThreads() int { return min(2, runtime.NumCPU()) }

func emit(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", data)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parent runs children until the time budget is spent.
type parent struct {
	workload string
	seed     int64
	traced   bool
	budget   time.Duration
	outDir   string
	checker  string
	start    time.Time

	refPath string
	localS  float64
}

// child runs one cold iteration in a fresh process and returns its sample.
func (p *parent) child(traced bool, traceOut string) (*sample, error) {
	args := []string{"-child", "-workload", p.workload, "-seed", fmt.Sprint(p.seed)}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", traceOut)
	}
	if p.refPath != "" {
		args = append(args, "-ref", p.refPath)
	}
	var s sample
	if err := p.exec(args, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// exec runs this binary with args and decodes the last stdout line into
// out. The child is killed at the invocation's hard limit.
func (p *parent) exec(args []string, out any) error {
	ctx, cancel := context.WithDeadline(context.Background(), p.start.Add(hardLimit))
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return fmt.Errorf("child %v output: %w", args, err)
	}
	return nil
}

func (p *parent) elapsed() time.Duration { return time.Since(p.start) }

func (p *parent) run() (*result, error) {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	h := hostInfo()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %v on %d CPUs, GOMAXPROCS %d, %s, commit %s\n",
		p.workload, p.seed, p.traced, h.CPUs, h.GOMAXPROCS, h.GoVersion, h.Commit)
	var untraced, traced []*sample
	attempted, failed := 0, 0
	measure := true
	if p.workload == "cluster_scatter" {
		if err := p.reference(); err != nil {
			// Without the reference no run can be checked.
			fmt.Fprintf(os.Stderr, "perfbench: reference failed: %v\n", err)
			attempted, failed, measure = 1, 1, false
		}
	}
	tracePath := filepath.Join(p.outDir, fmt.Sprintf("trace-%s-%d.json", p.workload, p.seed))
	record := func(s *sample, err error) *sample {
		attempted++
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: run failed: %v\n", err)
			return nil
		case s.Err != "":
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: run failed: %s\n", s.Err)
		}
		return s
	}
	for measure {
		done := p.elapsed() >= p.budget
		if p.traced {
			done = done && len(traced) > 0
		} else {
			done = done && attempted >= minRuns
		}
		if done || p.elapsed() >= hardLimit/2 && attempted > 0 {
			break
		}
		if s := record(p.child(false, "")); s != nil {
			untraced = append(untraced, s)
		}
		if p.traced {
			if s := record(p.child(true, tracePath)); s != nil {
				traced = append(traced, s)
			}
		}
	}
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if p.traced {
		if err := p.layerMetrics(res, untraced, traced, tracePath); err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	} else {
		p.endToEnd(res, untraced)
	}
	res.Correct = res.Failed == 0
	p.report(h, res, untraced, traced)
	return res, nil
}

// reference computes the cluster_scatter reference (RunChipLocal) once per
// invocation, in its own cold process.
func (p *parent) reference() error {
	var ref reference
	if err := p.exec([]string{"-reference", "-workload", p.workload}, &ref); err != nil {
		return err
	}
	p.localS = ref.LocalS
	p.refPath = filepath.Join(p.outDir, "reference.json")
	data, err := json.Marshal(&ref)
	if err != nil {
		return err
	}
	return os.WriteFile(p.refPath, data, 0o644)
}

// endToEnd fills the end-to-end metrics: medians over the successful
// untraced children, plus the success fraction over every attempt.
func (p *parent) endToEnd(res *result, samples []*sample) {
	var wall, tps, cpu, rss, setup []float64
	for _, s := range samples {
		if s.Err != "" {
			continue
		}
		wall = append(wall, s.WallS)
		tps = append(tps, float64(s.Tiles)/s.WallS)
		cpu = append(cpu, s.CPUS)
		rss = append(rss, s.PeakRSSMB)
		setup = append(setup, s.SetupS)
	}
	m := res.Metrics
	m["wall_s"] = metric{median(wall), "s"}
	m["tiles_per_s"] = metric{median(tps), "1/s"}
	m["cpu_s"] = metric{median(cpu), "s"}
	m["peak_rss_mb"] = metric{median(rss), "MB"}
	m["setup_s"] = metric{median(setup), "s"}
	m["ok_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
}

// layerMetrics fills every per-layer metric from the traced children
// (medians), the tracing overhead against the untraced children, and the
// tracecheck lint of the last traced child's Chrome trace.
func (p *parent) layerMetrics(res *result, untraced, traced []*sample, tracePath string) error {
	values := map[string][]float64{}
	var tracedWall, untracedWall []float64
	var last *sample
	for _, s := range traced {
		if s.Err != "" {
			continue
		}
		last = s
		tracedWall = append(tracedWall, s.WallS)
		for k, v := range s.Layers {
			values[k] = append(values[k], v)
		}
	}
	for _, s := range untraced {
		if s.Err == "" {
			untracedWall = append(untracedWall, s.WallS)
		}
	}
	for _, l := range layerMetricList {
		res.Metrics[l.name] = metric{median(values[l.name]), l.unit}
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, res.Metrics[name].Unit} }
	tw, uw := median(tracedWall), median(untracedWall)
	set("trace.wall_s", tw)
	set("trace.untraced_wall_s", uw)
	set("trace.overhead_s", tw-uw)
	if p.workload == "cluster_scatter" {
		set("cluster.local_s", p.localS)
		if p.localS > 0 {
			set("cluster.overhead_ratio", res.Metrics["cluster.scatter_s"].Value/p.localS)
		}
	}
	if last == nil {
		return errors.New("no successful traced run")
	}
	names := []string{p.workload}
	for _, st := range last.Ledger {
		if st.Name != "other" {
			names = append(names, st.Name)
		}
	}
	out, err := exec.Command(p.checker, "-names", strings.Join(names, ","), tracePath).CombinedOutput()
	fmt.Fprintf(os.Stderr, "perfbench: tracecheck: %s", out)
	if err != nil {
		return fmt.Errorf("tracecheck %s: %w", tracePath, err)
	}
	set("trace.lint_ok", 1)
	return nil
}

// host describes the machine and build a result was measured on.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	SourceHash string `json:"source_sha256"`
}

// report prints the host and the per-sample figures as JSON lines before
// the result line, and writes them with the result to the output directory.
func (p *parent) report(h host, res *result, untraced, traced []*sample) {
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		IsTraced bool      `json:"traced"`
		Seconds  float64   `json:"seconds"`
		Host     host      `json:"host"`
		Untraced []*sample `json:"untraced"`
		Traced   []*sample `json:"traced_runs,omitempty"`
		Result   *result   `json:"result"`
	}{p.workload, p.seed, p.traced, p.budget.Seconds(), h, untraced, traced, res}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err == nil {
		path := filepath.Join(p.outDir, fmt.Sprintf("report-%s-%d-trace%v.json", p.workload, p.seed, p.traced))
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
	}
	emit(map[string]any{"host": h})
	for _, s := range append(untraced, traced...) {
		fmt.Printf("run traced=%v setup_s=%.4f wall_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f tiles=%d err=%q\n",
			s.Traced, s.SetupS, s.WallS, s.CPUS, s.PeakRSSMB, s.Tiles, s.Err)
	}
	if p.traced {
		for _, s := range traced {
			fmt.Printf("ledger wall %.4f s:", s.WallS)
			for _, st := range s.Ledger {
				fmt.Printf(" %s=%.4f", st.Name, st.SelfS)
			}
			fmt.Println()
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

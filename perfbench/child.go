package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"pilfill/internal/cap"
	"pilfill/internal/core"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
)

// setupFunc builds a workload's inputs in memory and starts any workers; its
// cost is setup_s. ref is the cluster reference (nil for other workloads).
type setupFunc func(seed int64, ref *reference) (job, error)

// workloadOrder is the order of --workload all.
var workloadOrder = []string{"chip_dedup", "paper_tables", "cluster_scatter"}

var workloads = map[string]setupFunc{
	"chip_dedup":      setupChipDedup,
	"paper_tables":    setupPaperTables,
	"cluster_scatter": setupClusterScatter,
}

// job is a set-up workload instance. Its run is the measured section, from
// inputs in memory to a checked result.
type job interface {
	// run executes the load, recording one ledger stage per public call,
	// and checks the output; it returns the tiles solved. A check mismatch
	// is an error.
	run(led *ledger) (tiles int, err error)
	// layers adds the per-layer metrics of a traced run: counters read off
	// the public results, plus attribution timings of the layers one call
	// spans, measured on the same input outside the wall-time ledger.
	layers(m map[string]float64) error
	// close releases the instance and returns the usage of any helper
	// processes it ran.
	close() usage
}

// usage is CPU time and peak RSS of helper processes.
type usage struct {
	CPUS  float64
	RSSMB float64
}

func (u *usage) add(ru *syscall.Rusage) {
	u.CPUS += tv(ru.Utime) + tv(ru.Stime)
	u.RSSMB += float64(ru.Maxrss) / 1024
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// sample is one child's outcome.
type sample struct {
	Traced    bool               `json:"traced"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Tiles     int                `json:"tiles"`
	Err       string             `json:"err,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Ledger    []stage            `json:"ledger,omitempty"`
}

// setupReps is how many times a child sets its workload up.
const setupReps = 5

// runChild is one cold iteration: assert nothing is cached, set up, run and
// check, and (traced) collect the per-layer metrics and the ledger.
func runChild(setup setupFunc, name string, seed int64, traced bool, refPath, traceOut string) *sample {
	s := &sample{Traced: traced}
	fail := func(err error) *sample {
		s.Err = err.Error()
		return s
	}
	if err := assertCold(); err != nil {
		return fail(err)
	}
	var ref *reference
	if refPath != "" {
		var err error
		if ref, err = loadReference(refPath); err != nil {
			return fail(err)
		}
	}
	// Set up several times and keep the last instance: setup_s is the
	// median, steadier than one cold set-up.
	var (
		j     job
		err   error
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if j != nil {
			j.close()
		}
		t0 := time.Now()
		j, err = setup(seed, ref)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return fail(fmt.Errorf("setup: %w", err))
		}
	}
	s.SetupS = median(times)
	// Helper processes idle outside the measured section, so their whole
	// CPU time and peak RSS count toward the run's.
	defer func() {
		u := j.close()
		s.CPUS += u.CPUS
		s.PeakRSSMB = selfMaxRSSMB() + u.RSSMB
	}()
	if err := assertCold(); err != nil {
		return fail(err)
	}
	// Start the measured section from a collected heap, so the set-up
	// garbage does not land in it.
	runtime.GC()

	var led *ledger
	if traced {
		led = newLedger(name)
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	s.Tiles, err = j.run(led)
	s.WallS = time.Since(t0).Seconds()
	s.CPUS = cpuSeconds() - cpu0
	led.finish()
	if err != nil {
		return fail(err)
	}
	if !traced {
		return s
	}
	s.Layers = map[string]float64{}
	if err := j.layers(s.Layers); err != nil {
		return fail(fmt.Errorf("layers: %w", err))
	}
	s.Ledger = led.stages(s.Layers)
	if err := led.write(traceOut); err != nil {
		return fail(err)
	}
	return s
}

// assertCold fails unless the process-wide solve memo and capacitance-table
// cache are untouched: a warm start would replay earlier work.
func assertCold() error {
	if st := core.SharedSolveMemo.Stats(); st != (core.MemoStats{}) {
		return fmt.Errorf("cold start: shared solve memo not empty: %+v", st)
	}
	if st := cap.Shared.Stats(); st != (cap.CacheStats{}) {
		return fmt.Errorf("cold start: shared table cache not empty: %+v", st)
	}
	return nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfMaxRSSMB is the process's own peak resident set, helpers excluded.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// permuteNets is the workload seed's effect on a generated layout: the
// default seed keeps generator order, any other seed shuffles the nets. The
// geometry, and so the work, is the same for every seed.
func permuteNets(l *layout.Layout, seed int64) {
	if seed == defaultSeed {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(l.Nets), func(a, b int) { l.Nets[a], l.Nets[b] = l.Nets[b], l.Nets[a] })
}

// ledger records one span per public call under a root span named after
// the workload; a nil ledger (untraced run) just calls through.
type ledger struct {
	tr   *obs.Tracer
	root obs.Span
}

func newLedger(name string) *ledger {
	l := &ledger{tr: obs.NewTracer(0)}
	l.root = l.tr.Start("perfbench", name, 0, 0)
	return l
}

// stage runs fn inside a leaf span.
func (l *ledger) stage(name string, fn func() error) error {
	if l == nil {
		return fn()
	}
	sp := l.tr.Start("perfbench", name, 0, l.root.ID())
	err := fn()
	sp.End()
	return err
}

func (l *ledger) finish() {
	if l != nil {
		l.root.End()
	}
}

// stage is one ledger row: a leaf stage's self time summed over its spans,
// or "other", the root's time not covered by any leaf.
type stage struct {
	Name  string  `json:"name"`
	SelfS float64 `json:"self_s"`
}

// stages folds the recorded spans into the ledger (leaf stages in first-seen
// order, then other) and sets the trace.* coverage metrics. Leaves never
// overlap — stages run one after another — so the leaves plus other add up
// to the root's duration exactly.
func (l *ledger) stages(m map[string]float64) []stage {
	var root time.Duration
	self := map[string]time.Duration{}
	var order []string
	for _, r := range l.tr.Snapshot() {
		if r.ID == l.root.ID() {
			root = r.Dur
			continue
		}
		if _, ok := self[r.Name]; !ok {
			order = append(order, r.Name)
		}
		self[r.Name] += r.Dur
	}
	var out []stage
	var leaves time.Duration
	for _, name := range order {
		out = append(out, stage{name, self[name].Seconds()})
		leaves += self[name]
	}
	out = append(out, stage{"other", (root - leaves).Seconds()})
	m["trace.other_s"] = (root - leaves).Seconds()
	m["trace.leaf_coverage"] = leaves.Seconds() / root.Seconds()
	m["check_s"] = self["check"].Seconds()
	return out
}

// write saves the Chrome trace for tracecheck.
func (l *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo records where a result was measured: CPUs, GOMAXPROCS, the Go
// version, the commit with its dirty flag (when built inside a git
// checkout) and a digest of the module sources, which identifies the code
// when there is no git metadata.
func hostInfo() host {
	h := host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
		SourceHash: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value
			}
		}
	}
	return h
}

// sourceDigest hashes every .go and go.mod file under root (skipping dot
// directories such as the build directory) in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Command pilfill-coord is the cluster coordinator: it shards a chip's tile
// grid into regions (internal/shard), scatters one job per region to a
// static set of peer pilfilld workers over their /v1/jobs API, and gathers
// the results into a whole-chip report bit-identical to a single-process run
// (internal/cluster).
//
// Serve mode (default) exposes the chip-job API:
//
//	pilfill-coord -workers http://w1:8419,http://w2:8419,http://w3:8419 \
//	    -addr :8420 -data-dir /var/lib/pilfill-coord
//
// One-shot mode runs a single chip and prints the merged report as JSON:
//
//	pilfill-coord -workers ... -submit -cells-x 40 -cells-y 25 \
//	    -grid 4x2 -method greedy
//
// With -data-dir set, accepted chip jobs and finished regions are WAL-logged
// (chips.wal, regions.wal); a restarted coordinator resubmits unfinished
// chips and re-scatters only the regions that never finished. On
// SIGTERM/SIGINT the server flips /readyz first, then drains the chip queue.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pilfill/internal/cluster"
	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
	"pilfill/internal/server"
)

func main() {
	var (
		workersF     = flag.String("workers", "", "comma-separated pilfilld base URLs (required)")
		addr         = flag.String("addr", ":8420", "serve-mode listen address")
		dataDir      = flag.String("data-dir", "", "directory for the chip and region WALs (empty = no durability)")
		capacity     = flag.Int("queue-capacity", 16, "serve mode: bounded chip-queue capacity")
		queueWorkers = flag.Int("queue-workers", 1, "serve mode: chips run concurrently")
		maxInFlight  = flag.Int("max-in-flight", 0, "outstanding region jobs across the scatter (0 = 2x workers)")
		attemptTO    = flag.Duration("attempt-timeout", 5*time.Minute, "per-attempt submit-and-poll deadline")
		pollInterval = flag.Duration("poll-interval", 50*time.Millisecond, "worker job polling period")
		maxAttempts  = flag.Int("max-attempts", 0, "attempts per region before the chip fails (0 = 3x workers)")
		hedgeAfter   = flag.Duration("hedge-after", 0, "launch a hedged duplicate on the next-ranked worker after this long (0 = off)")
		tenant       = flag.String("tenant", "", "X-Tenant header sent to workers")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "shutdown: how long to wait for running chips")
		logLevel     = flag.String("log-level", "info", "structured log level: debug|info|warn|error")
		logFormat    = flag.String("log-format", "text", "structured log format: text|json")

		submit     = flag.Bool("submit", false, "one-shot mode: run one chip and print the merged report")
		defPath    = flag.String("def", "", "one-shot: chip layout DEF file (alternative to -cells-x/-cells-y)")
		cellsX     = flag.Int("cells-x", 0, "one-shot: generated chip width in cells")
		cellsY     = flag.Int("cells-y", 0, "one-shot: generated chip height in cells")
		gridF      = flag.String("grid", "1x1", "one-shot: region grid, GXxGY")
		method     = flag.String("method", "greedy", "one-shot: placement method")
		kernel     = flag.String("kernel", "elliptic", "one-shot: effective-density kernel: flat|elliptic|gaussian")
		target     = flag.Float64("target", 0.25, "one-shot: minimum effective density to budget to")
		maxDen     = flag.Float64("max-density", 0.7, "one-shot: maximum window density")
		seed       = flag.Int64("seed", 1, "one-shot: RNG seed (Normal method)")
		weighted   = flag.Bool("weighted", false, "one-shot: criticality-weighted objective")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "one-shot: per-region job deadline on the workers")
		collectTr  = flag.Bool("collect-trace", false, "one-shot: workers ship span dumps back with their reports")
		traceOut   = flag.String("trace", "", "one-shot: write the merged multi-process Chrome trace here (implies -collect-trace)")
		version    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("pilfill-coord %s (%s)\n", obs.Version, obs.GoVersion())
		return
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("pilfill-coord: %v", err)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat)
	workers := splitWorkers(*workersF)
	if len(workers) == 0 {
		log.Fatalf("pilfill-coord: -workers is required (comma-separated pilfilld URLs)")
	}

	reg := obs.NewRegistry()
	coord, err := cluster.New(cluster.Config{
		Workers:        workers,
		MaxInFlight:    *maxInFlight,
		AttemptTimeout: *attemptTO,
		PollInterval:   *pollInterval,
		MaxAttempts:    *maxAttempts,
		HedgeAfter:     *hedgeAfter,
		Tenant:         *tenant,
		DataDir:        *dataDir,
		Logger:         logger,
		Registry:       reg,
	})
	if err != nil {
		log.Fatalf("pilfill-coord: %v", err)
	}
	defer coord.Close()

	if *submit {
		job := cluster.ChipJob{
			CellsX: *cellsX, CellsY: *cellsY,
			Method: *method, Kernel: *kernel,
			TargetMin: *target, MaxDensity: *maxDen,
			TimeoutMS: jobTimeout.Milliseconds(),
			Options:   server.SubmitOptions{Seed: *seed, Weighted: *weighted},
		}
		job.CollectTrace = *collectTr || *traceOut != ""
		if *defPath != "" {
			data, err := os.ReadFile(*defPath)
			if err != nil {
				log.Fatalf("pilfill-coord: %v", err)
			}
			job.DEF = string(data)
		}
		if _, err := fmt.Sscanf(*gridF, "%dx%d", &job.GX, &job.GY); err != nil {
			log.Fatalf("pilfill-coord: bad -grid %q (want GXxGY): %v", *gridF, err)
		}
		runOnce(coord, job, logger, *traceOut)
		return
	}

	svc, err := cluster.NewService(cluster.ServiceConfig{
		Coordinator: coord,
		Queue:       jobqueue.Config{Capacity: *capacity, Workers: *queueWorkers},
		DataDir:     *dataDir,
		Logger:      logger,
		Registry:    reg,
	})
	if err != nil {
		log.Fatalf("pilfill-coord: %v", err)
	}
	logger.Info("pilfill-coord listening", "addr", *addr, "workers", len(workers),
		"data_dir", *dataDir, "version", obs.Version)
	if err := svc.Serve(*addr, *drainTimeout); err != nil {
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	}
}

// runOnce executes a single chip, prints the merged report JSON, and — when
// traceOut is set — writes the merged multi-process Chrome trace.
func runOnce(coord *cluster.Coordinator, job cluster.ChipJob, logger interface {
	Info(string, ...any)
}, traceOut string) {
	start := time.Now()
	prep, err := cluster.PrepareChip(job)
	if err != nil {
		log.Fatalf("pilfill-coord: %v", err)
	}
	logger.Info("chip prepared", "regions", len(prep.Jobs),
		"tiles", prep.Dis.NX*prep.Dis.NY, "achieved_min", prep.Achieved)
	run := cluster.NewChipRun("", job.CollectTrace)
	rep, err := coord.RunChipObserved(context.Background(), prep, run)
	if err != nil {
		log.Fatalf("pilfill-coord: %v", err)
	}
	logger.Info("chip done", "fills", rep.FillCount, "fill_hash", rep.FillHash,
		"trace", run.TraceID, "wall", time.Since(start).String())
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			log.Fatalf("pilfill-coord: %v", err)
		}
		if err := run.WriteMergedTrace(f); err != nil {
			log.Fatalf("pilfill-coord: write merged trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("pilfill-coord: %v", err)
		}
		logger.Info("merged trace written", "path", traceOut)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatalf("pilfill-coord: %v", err)
	}
}

// splitWorkers parses the comma-separated worker list, trimming blanks.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, strings.TrimRight(w, "/"))
		}
	}
	return out
}

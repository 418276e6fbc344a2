// Command pilfilld serves fill synthesis over HTTP: a bounded job queue
// with a fixed worker pool, per-job deadlines, cancellation, live per-job
// progress (GET /v1/jobs/{id}/progress, fed by the engine's tile callback),
// optional span collection shipped back with the report (collect_trace),
// and Prometheus metrics. Incoming X-Request-ID headers — the coordinator
// sends `<trace>/<region>#<attempt>` — are echoed, logged, and bound to the
// job as its trace ID. See internal/server for the API.
//
// Usage:
//
//	pilfilld -addr :8419 -queue-capacity 32 -queue-workers 4
//
// On SIGTERM/SIGINT the daemon drains: /readyz flips to 503 first (so
// coordinators and load balancers stop routing here), then /healthz follows
// as the queue drain starts, new submissions are rejected, running and
// queued jobs finish (up to -drain-timeout, after which they are cancelled),
// and the listener closes. With -data-dir set, accepted keyed jobs are
// logged to an append-only WAL and unfinished ones are resubmitted on the
// next start, so a restart loses no accepted work. -tenant-rate/-tenant-
// share enable per-tenant admission keyed by the X-Tenant header.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
	"pilfill/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8419", "listen address")
		capacity     = flag.Int("queue-capacity", 32, "bounded queue capacity; full queue rejects with 429")
		workers      = flag.Int("queue-workers", max(1, runtime.NumCPU()/2), "concurrent jobs")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "default per-job run deadline (0 = none; requests may set a shorter one)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for accepted jobs before cancelling them")
		maxBody      = flag.Int64("max-body-bytes", 64<<20, "request body limit (inline DEF payloads)")
		logLevel     = flag.String("log-level", "info", "structured log level: debug|info|warn|error")
		logFormat    = flag.String("log-format", "text", "structured log format: text|json")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (protect the port)")
		dataDir      = flag.String("data-dir", "", "directory for the durable-jobs WAL (empty = no durability)")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant sustained submissions/sec, X-Tenant keyed (0 = no rate limit)")
		tenantBurst  = flag.Float64("tenant-burst", 0, "per-tenant submission burst allowance (0 = max(1, rate))")
		tenantShare  = flag.Int("tenant-share", 0, "total in-flight jobs split between tenants by weight (0 = no share accounting)")
		version      = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("pilfilld %s (%s)\n", obs.Version, obs.GoVersion())
		return
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("pilfilld: %v", err)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat)

	cfg := server.Config{
		Queue: jobqueue.Config{
			Capacity:       *capacity,
			Workers:        *workers,
			DefaultTimeout: *jobTimeout,
		},
		MaxBodyBytes: *maxBody,
		Logger:       logger,
		Pprof:        *pprofFlag,
		DataDir:      *dataDir,
	}
	if *tenantRate > 0 || *tenantShare > 0 {
		cfg.Tenant = &jobqueue.TenantConfig{
			Rate:          *tenantRate,
			Burst:         *tenantBurst,
			ShareCapacity: *tenantShare,
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("pilfilld: %v", err)
	}
	logger.Info("pilfilld listening", "addr", *addr, "capacity", *capacity,
		"workers", *workers, "job_timeout", *jobTimeout,
		"pprof", *pprofFlag, "version", obs.Version)
	if err := srv.Serve(*addr, *drainTimeout); err != nil {
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	}
}

// Command flashwalkerd serves the walk service: an HTTP/JSON API that
// runs FlashWalker and GraphWalker-baseline simulations as managed jobs
// with live progress, cooperative cancellation, and a bounded queue.
//
// Usage:
//
//	flashwalkerd [-addr :8080] [-workers 2] [-queue 16] [-state-dir DIR]
//	             [-store fs|mem|http://...]
//	             [-retain-jobs 0] [-retain-age 0] [-max-body-bytes 4194304]
//	             [-corpus-cache 16] [-tenant-max-queued 0]
//	             [-tenant-max-running 0] [-tenant-rate 0] [-tenant-burst 1]
//	             [-stream-ring 4096]
//
// With a durable store, jobs are durable: specs are journaled at
// submission, running engines checkpoint at their checkpoint_every cadence
// (each checkpoint one full snapshot object per job), and a restarted
// daemon recovers the journal — finished jobs as history, unfinished ones
// re-enqueued and resumed from their last snapshot. A SIGKILLed daemon
// restarted on the same store finishes its jobs with results identical to
// an uninterrupted run.
//
// The store backend is picked by -store: "fs" (the default) keeps the
// PR-9 on-disk layout under -state-dir; "mem" holds durable state in
// process memory (useful for tests — state does not survive the
// process); an http:// or https:// URL targets an S3-style object
// server speaking GET/PUT/POST/DELETE on keys plus GET /?prefix= for
// listing (see internal/blob). -retain-jobs / -retain-age bound how
// many terminal jobs the daemon keeps, in memory and in the store.
//
// Endpoints (see internal/service):
//
//	POST /v1/jobs              {"graph":"TT-S","num_walks":1000,"seed":1}
//	                           add "tenant":"name" for per-tenant quotas,
//	                           add "fault_config":{"enabled":true,...} for
//	                           deterministic fault injection (invalid
//	                           configs are rejected with 400 at submission)
//	GET  /v1/jobs              list jobs (?status=, ?tenant=, limit/cursor)
//	GET  /v1/jobs/{id}         job status with live progress
//	POST /v1/jobs/{id}/cancel  cancel (running jobs keep a partial result)
//	GET  /v1/jobs/{id}/stream  NDJSON of completed walks, live; resumable
//	                           with ?from=seq
//	GET  /v1/jobs/{id}/corpus  a finished "deepwalk" job's corpus text
//	GET  /v1/graphs            registered graphs
//	POST /v1/graphs            {"name":"my-graph","path":"g.bin"}
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text metrics
//
// SIGINT/SIGTERM drain gracefully: the listener stops, running jobs are
// canceled at their next checkpoint, and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flashwalker/internal/blob"
	"flashwalker/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent jobs")
	queue := flag.Int("queue", 16, "bounded job queue depth")
	stateDir := flag.String("state-dir", "", "durable job state directory (empty: in-memory only)")
	storeKind := flag.String("store", "fs",
		"durable store backend: fs (files under -state-dir), mem, or an http(s):// object-store base URL")
	retainJobs := flag.Int("retain-jobs", 0,
		"terminal jobs to retain, in memory and in the durable store (0: unlimited)")
	retainAge := flag.Duration("retain-age", 0,
		"max age of a terminal job, in memory and in the durable store (0: unlimited)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0,
		"request body size cap for POST endpoints (0: default 4 MiB)")
	corpusCache := flag.Int("corpus-cache", 0,
		"precomputed walk-corpus cache entries for deepwalk jobs (0: default 16, negative: disabled)")
	tenantMaxQueued := flag.Int("tenant-max-queued", 0,
		"max queued jobs per tenant (0: unlimited)")
	tenantMaxRunning := flag.Int("tenant-max-running", 0,
		"max concurrently running jobs per tenant (0: unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0,
		"per-tenant job submission rate limit in jobs/sec (0: unlimited)")
	tenantBurst := flag.Int("tenant-burst", 1,
		"per-tenant submission burst allowance when -tenant-rate is set")
	streamRing := flag.Int("stream-ring", 0,
		"completed-walk stream ring capacity in records (0: default 4096)")
	flag.Parse()

	cfg := service.Config{
		Workers: *workers, QueueDepth: *queue, StateDir: *stateDir,
		RetainJobs:         *retainJobs,
		RetainAge:          *retainAge,
		MaxBodyBytes:       *maxBodyBytes,
		CorpusCacheEntries: *corpusCache,
		TenantMaxQueued:    *tenantMaxQueued,
		TenantMaxRunning:   *tenantMaxRunning,
		TenantRatePerSec:   *tenantRate,
		TenantRateBurst:    *tenantBurst,
		StreamRingWalks:    *streamRing,
	}
	switch {
	case *storeKind == "fs" || *storeKind == "":
		// Manager wraps StateDir in the FS store itself (empty: no
		// durability), preserving the PR-9 on-disk layout.
	case *storeKind == "mem":
		cfg.Store = blob.NewMem()
	case strings.HasPrefix(*storeKind, "http://") || strings.HasPrefix(*storeKind, "https://"):
		st, err := blob.NewHTTP(*storeKind, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flashwalkerd:", err)
			os.Exit(2)
		}
		cfg.Store = st
	default:
		fmt.Fprintf(os.Stderr, "flashwalkerd: bad -store %q (want fs, mem, or an http(s):// URL)\n", *storeKind)
		os.Exit(2)
	}
	if err := run(*addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "flashwalkerd:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg service.Config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m, err := service.NewManager(service.NewRegistry(), cfg)
	if err != nil {
		return err
	}
	defer m.Close()

	srv := &http.Server{
		Addr:              addr,
		Handler:           service.NewHandler(m),
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds slow request bodies; the stream handler clears
		// its per-request deadline, so long-lived streams are unaffected.
		ReadTimeout: 30 * time.Second,
		IdleTimeout: 2 * time.Minute,
		// WriteTimeout stays 0: it cannot be cleared per request, and any
		// value would sever healthy long-lived NDJSON streams mid-flight.
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("flashwalkerd: listening on %s (%d workers, queue %d)\n", addr, cfg.Workers, cfg.QueueDepth)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Println("flashwalkerd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Command awamd is the analysis daemon: a long-lived HTTP service over
// the incremental dataflow analyzer. It holds one summary cache for its
// whole lifetime (optionally persisted to disk), so repeated analyses
// of evolving programs pay only for their edits.
//
// Usage:
//
//	awamd [-addr :8347] [-cache-dir DIR] [-cache-bytes N] [-remote URL]
//	      [-workers N] [-timeout D] [-max-timeout D]
//	      [-max-body N] [-max-steps N] [-drain D]
//
// With -remote the daemon joins a summary fabric: its store gains a
// remote tier speaking the batched /v1/store protocol against the peer
// daemon at URL, so records computed by any fleet member are reused by
// all of them. A peer outage degrades the tier to local-only serving —
// analyses still succeed with identical results.
//
// Endpoints (see the awam/api package for the wire types): POST
// /v1/analyze, POST /v1/backward (demand queries against the same
// shared store, under their own record salt), POST /v1/optimize, GET
// /v1/healthz and GET /v1/metrics. SIGINT/SIGTERM drain in-flight
// requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"awam"
	"awam/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address")
		cacheDir   = flag.String("cache-dir", "", "persist summary records to this directory (empty: memory only)")
		cacheBytes = flag.Int64("cache-bytes", 0, "in-memory cache budget in bytes (0: default 64 MiB)")
		remote     = flag.String("remote", "", "base URL of a peer daemon's summary store (joins its fabric)")
		workers    = flag.Int("workers", 4, "max concurrent analyses, and max programs kept resident")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-request analysis deadline")
		maxTimeout = flag.Duration("max-timeout", 60*time.Second, "clamp on request-supplied deadlines")
		maxBody    = flag.Int64("max-body", 1<<20, "max request body bytes")
		maxSteps   = flag.Int64("max-steps", 0, "clamp on per-request abstract step budgets (0: uncapped)")
		drain      = flag.Duration("drain", 15*time.Second, "shutdown drain deadline")
	)
	flag.Parse()

	storeOpts := []awam.StoreOption{awam.WithMemoryBudget(*cacheBytes)}
	if *cacheDir != "" {
		storeOpts = append(storeOpts, awam.WithDiskDir(*cacheDir))
	}
	if *remote != "" {
		storeOpts = append(storeOpts, awam.WithRemote(*remote))
	}
	cache, err := awam.NewStore(storeOpts...)
	if err != nil {
		log.Fatalf("awamd: cache: %v", err)
	}
	srv, err := serve.New(serve.Config{
		Cache:          cache,
		MaxBodyBytes:   *maxBody,
		MaxConcurrent:  *workers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxSteps:       *maxSteps,
	})
	if err != nil {
		log.Fatalf("awamd: %v", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if *remote != "" {
		log.Printf("awamd: listening on %s (cache dir %q, fabric peer %s)", *addr, *cacheDir, *remote)
	} else {
		log.Printf("awamd: listening on %s (cache dir %q)", *addr, *cacheDir)
	}

	select {
	case err := <-errc:
		log.Fatalf("awamd: serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("awamd: shutting down, draining for up to %s", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "awamd: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("awamd: %v", err)
	}
	log.Printf("awamd: bye")
}

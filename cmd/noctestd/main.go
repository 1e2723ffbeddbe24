// Command noctestd serves the noctest scheduling engine over HTTP:
// POST an itc02 benchmark or socgen scenario to /schedule and get back
// a validated test plan. Compiled models are cached by content hash so
// repeated systems skip Compile; a bounded scheduling pool turns
// overload into queueing and then 429s; ?timeout= bounds each request
// and returns the anytime best plan found within it; ?stream=1 streams
// incumbent improvements as NDJSON while the race runs.
//
// Robustness: -store journals complete results to a crash-safe
// append-only file, so a warm restart replays repeat requests without
// re-racing; SIGTERM/SIGINT drains gracefully (readiness on /readyz
// flips to 503, in-flight work finishes up to -drain-timeout, then
// returns anytime partial plans); handler panics recover to 500s with
// incident IDs; a panicking portfolio strategy degrades its race to
// the survivors. -fault-spec enables the seeded fault injector for
// chaos drills (see internal/fault for the grammar) — never set it in
// production.
//
// Usage:
//
//	noctestd -addr :8080 -store noctestd.journal
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

	"noctest/internal/fault"
	"noctest/internal/resultstore"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		cacheEntries   = flag.Int("cache", 64, "compiled-model cache capacity, entries")
		workers        = flag.Int("workers", 0, "concurrent scheduling jobs (0 = GOMAXPROCS)")
		queueDepth     = flag.Int("queue", 256, "requests parked waiting for a slot before 429")
		requestWorkers = flag.Int("request-workers", 1, "portfolio workers per request")
		defaultTimeout = flag.Duration("default-timeout", 30*time.Second, "per-request deadline when ?timeout= is absent")
		maxTimeout     = flag.Duration("max-timeout", 5*time.Minute, "ceiling on client-supplied ?timeout=")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget after SIGTERM: in-flight requests outliving it return their anytime partial plans")
		storePath      = flag.String("store", "", "journal complete results to this file for crash-safe memoization (empty: disabled)")
		storeSync      = flag.Bool("store-sync", false, "fsync the result journal after every append")
		faultSpec      = flag.String("fault-spec", "", "enable the seeded fault injector with this spec (chaos drills only; see internal/fault)")
	)
	flag.Parse()
	if err := run(serverConfig{
		cacheEntries:   *cacheEntries,
		workers:        *workers,
		queueDepth:     *queueDepth,
		requestWorkers: *requestWorkers,
		defaultTimeout: *defaultTimeout,
		maxTimeout:     *maxTimeout,
		drainTimeout:   *drainTimeout,
	}, *addr, *storePath, *storeSync, *faultSpec); err != nil {
		fmt.Fprintf(os.Stderr, "noctestd: %v\n", err)
		os.Exit(1)
	}
}

func run(scfg serverConfig, addr, storePath string, storeSync bool, faultSpec string) error {
	if scfg.defaultTimeout < 0 || scfg.maxTimeout < 0 || scfg.drainTimeout < 0 {
		return fmt.Errorf("invalid timeout configuration: deadlines must be positive")
	}
	inj, err := fault.Parse(faultSpec)
	if err != nil {
		return err
	}
	if inj != nil {
		log.Printf("noctestd: FAULT INJECTION ACTIVE (%s) — chaos drill configuration, not production", inj)
		scfg.faults = inj
	}
	if storePath != "" {
		store, err := resultstore.Open(storePath, resultstore.Options{Sync: storeSync, Faults: inj})
		if err != nil {
			return err
		}
		defer store.Close()
		st := store.Stats()
		log.Printf("noctestd: result journal %s: %d records replayed, %d corrupted tail bytes truncated",
			storePath, st.Recovered, st.TruncatedBytes)
		scfg.store = store
	}
	srv := newServer(scfg)
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("noctestd listening on %s (workers=%d queue=%d cache=%d entries)",
		addr, srv.cfg.workers, srv.cfg.queueDepth, srv.cfg.cacheEntries)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful drain: stop accepting (readiness flips to 503 so load
		// balancers reroute), finish in-flight work up to the drain
		// budget — requests outliving it return anytime partial plans —
		// then close the listener. The extra grace on Shutdown covers
		// writing those final responses.
		log.Printf("noctestd: drain started (budget %v)", srv.cfg.drainTimeout)
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), srv.cfg.drainTimeout+5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("noctestd: drain complete")
		return nil
	}
}

// Command ecnsharpd is the ecnsharp experiment daemon: an HTTP/JSON
// service that accepts sweep specs (the same schema ecnsim -spec reads),
// executes them on a worker pool, and serves results from a
// content-addressed on-disk cache so repeated submissions are
// byte-identical disk reads instead of recomputation.
//
// See docs/API.md for the endpoint reference.
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

	"ecnsharp/internal/cache"
	"ecnsharp/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "result cache directory (default: ecnsharp-cache under the OS temp dir)")
	cacheMaxMB := flag.Int64("cache-max-mb", 512, "cache size budget in MiB (0 = unbounded)")
	parallel := flag.Int("parallel", 0, "worker pool size per sweep (0 = one per CPU)")
	timeout := flag.Duration("timeout", 0, "per-cell computation timeout (0 = none)")
	flag.Parse()

	dir := *cacheDir
	if dir == "" {
		dir = os.TempDir() + "/ecnsharp-cache"
	}
	store, err := cache.Open(dir, cache.Options{MaxBytes: *cacheMaxMB << 20})
	if err != nil {
		log.Fatalf("ecnsharpd: open cache: %v", err)
	}
	srv, err := service.New(service.Config{
		Store:    store,
		Parallel: *parallel,
		Timeout:  *timeout,
	})
	if err != nil {
		log.Fatalf("ecnsharpd: %v", err)
	}

	// ReadHeaderTimeout drops clients that never finish a request header.
	// There is no ReadTimeout or WriteTimeout: either would cut off a long
	// NDJSON progress stream.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		log.Printf("ecnsharpd: listening on http://%s (cache %s)", *addr, dir)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("ecnsharpd: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "ecnsharpd: shutting down")
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("ecnsharpd: shutdown: %v", err)
	}
}

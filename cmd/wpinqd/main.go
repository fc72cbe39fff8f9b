// Command wpinqd serves the wPINQ curator workflow over HTTP: upload a
// protected edge list with a privacy budget, take differentially
// private measurements of it (after which the graph is discarded), and
// let analysts fetch releases and fit synthetic graphs asynchronously.
//
// Usage:
//
//	wpinqd [-addr :8080] [-data DIR] [-chains K] [-workers N]
//	       [-checkpoint-every N] [-seed N] [-log-format text|json]
//	       [-debug-addr ADDR]
//
// Every synthesis job fits at one dataflow shard, so a job is a function
// of the release bytes and its seed, bit-identical across processes;
// the daemon runs jobs (and a job its -chains) in parallel instead, one
// worker per CPU by default.
//
// The API is documented on service.Handler; `wpinq remote` is the
// matching command-line client. See README.md, "Serving".
//
// Observability: GET /metrics on the main address serves Prometheus-
// text metrics (engine pushes, MCMC accept/swap rates, HTTP latencies,
// per-dataset budget gauges). -debug-addr additionally serves the
// metrics page and net/http/pprof profiles on a separate listener,
// which keeps profiling endpoints off the public API address.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wpinq/internal/obs"
	"wpinq/internal/service"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers on either listener; without it a connection that never finishes
// them is held forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wpinqd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wpinqd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	data := fs.String("data", "", "directory persisting released measurements (empty = in-memory)")
	chains := fs.Int("chains", 1, "default replica-exchange chains per synthesis job (1 = single chain)")
	workers := fs.Int("workers", 0, "synthesis worker pool size (0 = GOMAXPROCS)")
	checkpointEvery := fs.Int("checkpoint-every", 0,
		"default checkpoint cadence in MCMC steps for synthesis jobs (durable jobs survive daemon restarts; 0 = not durable)")
	seed := fs.Int64("seed", 1, "base seed for requests that do not supply one")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	debugAddr := fs.String("debug-addr", "", "separate listen address for /metrics and /debug/pprof (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("invalid -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	svc, err := service.New(service.Options{
		Dir:             *data,
		Chains:          *chains,
		Workers:         *workers,
		CheckpointEvery: *checkpointEvery,
		Seed:            *seed,
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	srv := &http.Server{Addr: *addr, Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "store", storeDesc(*data))

	var debug *http.Server
	if *debugAddr != "" {
		debug = &http.Server{Addr: *debugAddr, Handler: debugMux(), ReadHeaderTimeout: readHeaderTimeout}
		go func() { errc <- debug.ListenAndServe() }()
		logger.Info("debug listener up", "addr", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if debug != nil {
			debug.Shutdown(ctx)
		}
		return srv.Shutdown(ctx)
	}
}

// debugMux serves the operator-only surface: the metrics page plus the
// standard pprof profile endpoints. pprof's handlers are mounted
// explicitly rather than via the package's DefaultServeMux side effect,
// so importing this binary's packages never leaks profiling routes
// onto the public API mux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Default.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func storeDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}

// Command ftfabricd runs the fabric-manager daemon: the long-running
// subnet-manager role (OpenSM in the paper's deployment) serving
// routes, the topology-aware MPI node order, job placements and the
// standing Shift-HSD contention summary over HTTP, while rerouting
// around injected link faults in the background. Readers always see one
// consistent snapshot; fault handling is debounced and validated before
// the snapshot swap.
//
// Usage:
//
//	ftfabricd -topo 324 -addr 127.0.0.1:7474
//	curl localhost:7474/v1/route?src=0\&dst=17
//	curl -X POST localhost:7474/v1/faults -d '{"fail_random":3}'
//	curl localhost:7474/v1/hsd
//
// The same listener also speaks the compact binary route protocol
// (internal/wire): connections opening with the protocol magic are
// sniffed off to the batched RouteSet/Epoch/Order handler, everything
// else is HTTP. ftload -proto binary and the fclient library use it.
//
// SIGINT/SIGTERM drain in-flight requests and stop the event loop.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fattree/internal/cli"
	"fattree/internal/fmgr"
	"fattree/internal/obs"
	"fattree/internal/wire"
)

func main() { os.Exit(cli.Main("ftfabricd", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var o options
	a.Flags.StringVar(&o.Addr, "addr", "127.0.0.1:7474", "listen address")
	a.Flags.IntVar(&o.MaxInflight, "max-inflight", 64, "concurrent /v1 requests before 429")
	a.Flags.DurationVar(&o.Timeout, "timeout", 2*time.Second, "per-request handling timeout")
	a.Flags.DurationVar(&o.Debounce, "debounce", 25*time.Millisecond, "fault-event coalescing window before a reroute")
	a.Flags.DurationVar(&o.Drain, "drain", 5*time.Second, "graceful-shutdown drain budget")
	a.Flags.StringVar(&o.SpanTrace, "span-trace", "", "write request and rebuild spans to `file` in Chrome trace-event format")
	a.Flags.IntVar(&o.SpanSample, "span-sample", 1, "trace one in N eligible requests (with -span-trace)")
	a.Flags.IntVar(&o.Journal, "journal", 1024, "fabric event journal capacity (GET /v1/events)")
	spec := a.Topo("324")
	seed := a.Seed(1, "seed for fail_random fault draws")
	a.Profile()
	return func(w io.Writer) error {
		o.Spec, o.Seed = *spec, *seed
		return run(w, o)
	}
}

type options struct {
	Spec, Addr          string
	MaxInflight         int
	Timeout, Debounce   time.Duration
	Seed                int64
	Drain               time.Duration
	SpanTrace           string
	SpanSample, Journal int
}

func run(w io.Writer, o options) error {
	t, err := cli.BuildTopo(o.Spec)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	var spans *obs.SpanTracer
	if o.SpanTrace != "" {
		f, err := os.Create(o.SpanTrace)
		if err != nil {
			return fmt.Errorf("span-trace: %w", err)
		}
		tr := obs.NewTracer(f)
		spans = obs.NewSpanTracer(tr, 1, "ftfabricd")
		defer func() {
			tr.Close()
			f.Close()
		}()
	}
	m, err := fmgr.New(fmgr.Config{
		Topo:           t,
		Debounce:       o.Debounce,
		Rand:           rand.New(rand.NewSource(o.Seed)),
		Metrics:        reg,
		MaxInflight:    o.MaxInflight,
		RequestTimeout: o.Timeout,
		Spans:          spans,
		SpanSample:     o.SpanSample,
		JournalSize:    o.Journal,
	})
	if err != nil {
		return err
	}
	m.Start()
	defer m.Close()

	srv := &http.Server{
		Handler:           m.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// One listener, two protocols: first-byte sniffing routes binary
	// connections to ServeWire, the rest to the HTTP server.
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(wire.Split(ln, m.ServeWire)) }()
	fmt.Fprintf(w, "ftfabricd: serving %s (%d hosts, epoch %d, engine %s) on %s (http+wire)\n",
		t.Spec, t.NumHosts(), m.Current().Epoch, m.Current().Engine, o.Addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(w, "ftfabricd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.Drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/wire"
	"repro/internal/workload"
)

// spec describes one workload's data, engine and front end.
type spec struct {
	name       string
	rows       int
	sampleRows int
	compressed bool  // Backing and SampleBacking compressed
	cacheBytes int64 // core.Config.CacheBytes (0 = library default: off)
	udfs       bool  // register workload.UDFLibrary
	served     bool  // run through the aqpd stack over loopback
	accuracyN  int   // length of the fixed accuracy/warmup prefix
	newStream  func(seed uint64) *distinct
}

var specs = []spec{
	{
		name: "trace-mix", rows: 1_000_000, sampleRows: 20_000, udfs: true, accuracyN: 160,
		newStream: newTraceMix,
	},
	{
		name: "scan-closed", rows: 2_000_000, sampleRows: 100_000, compressed: true,
		cacheBytes: 16 << 20, accuracyN: 200,
		newStream: newScanClosed,
	},
	{
		name: "serve-cached", rows: 200_000, sampleRows: 20_000, cacheBytes: 64 << 20, served: true,
		accuracyN: servePoolSize,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// system is one set-up program instance: the engine, and for served
// workloads the aqpd stack in front of it.
type system struct {
	eng    *core.Engine
	tracer *obs.Tracer

	srv      *serve.Server
	wl       *wire.Listener
	hs       *http.Server
	wireAddr string
	httpAddr string
	// probe sees every wire Submit and HTTP handler call; it records only
	// while enabled (traced phases).
	probe *serverProbe
}

// setupTimes are the parts of one set-up.
type setupTimes struct {
	total, register, buildSamples time.Duration
}

// engineConfig is the core configuration a workload runs with.
func engineConfig(sp spec, workers int, tracer *obs.Tracer) core.Config {
	cfg := core.Config{Seed: engineSeed, Workers: workers, CacheBytes: sp.cacheBytes, Obs: tracer}
	if sp.compressed {
		cfg.Backing = table.BackingCompressed
		cfg.SampleBacking = table.BackingCompressed
	}
	return cfg
}

func registerUDFs(eng *core.Engine) {
	for _, u := range workload.UDFLibrary {
		eng.RegisterUDF(u.Name, u.Fn)
	}
}

// setup builds the program the way its users do: engine, UDFs, table
// registration (compression and zone maps included), samples and, for
// served workloads, the serve layer with both listeners on loopback.
func setup(sp spec, data *table.Table, workers int, probe bool) (*system, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	sys := &system{}
	if sp.served {
		sys.tracer = obs.NewTracer(obs.Config{})
	}
	sys.eng = core.New(engineConfig(sp, workers, sys.tracer))
	if sp.udfs {
		registerUDFs(sys.eng)
	}
	r0 := time.Now()
	if err := sys.eng.RegisterTable(tableName, data); err != nil {
		return nil, t, err
	}
	r1 := time.Now()
	if err := sys.eng.BuildSamples(tableName, sp.sampleRows); err != nil {
		return nil, t, err
	}
	r2 := time.Now()
	t.register, t.buildSamples = r1.Sub(r0), r2.Sub(r1)
	if sp.served {
		if err := sys.listen(probe); err != nil {
			sys.close()
			return nil, t, err
		}
	}
	t.total = time.Since(start)
	return sys, t, nil
}

// listen starts serve, the MySQL-wire listener and the HTTP listener as
// aqpd does, on ephemeral loopback ports.
func (s *system) listen(probe bool) error {
	reg := s.tracer.Registry()
	s.srv = serve.New(s.eng, serve.Config{Metrics: reg})
	var sub wire.Submitter = s.srv
	var handler http.Handler = serve.NewHTTPHandler(s.srv, serve.HTTPOptions{})
	if probe {
		s.probe = newServerProbe(s.srv, handler)
		sub, handler = wireProbe{s.probe}, httpProbe{s.probe}
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("mysql listener: %w", err)
	}
	s.wl = wire.Serve(wln, sub, wire.Config{Metrics: reg})
	s.wireAddr = s.wl.Addr().String()
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("http listener: %w", err)
	}
	s.httpAddr = hln.Addr().String()
	s.hs = &http.Server{Handler: handler}
	go s.hs.Serve(hln)
	return nil
}

// close stops listeners, drains serve and closes the engine, waiting for
// every goroutine they started.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.wl != nil {
		s.wl.Drain()
	}
	if s.srv != nil {
		s.srv.Shutdown(ctx)
	}
	if s.hs != nil {
		s.hs.Shutdown(ctx)
	}
	if s.wl != nil {
		s.wl.Shutdown(ctx)
	}
	s.eng.Close()
}

// serverCall is what the probe saw for one server-side call.
type serverCall struct {
	start, end time.Time
	ans        *core.Answer
	err        error
}

// serverProbe times the server side of each transport. Each transport is
// driven by one client connection issuing one query at a time, so each
// recorded call belongs to that connection's current query; the client
// takes it from the transport's channel after the response arrives.
type serverProbe struct {
	sub     wire.Submitter
	handler http.Handler
	on      atomic.Bool

	wireCalls, httpCalls chan serverCall
}

func newServerProbe(sub wire.Submitter, handler http.Handler) *serverProbe {
	return &serverProbe{
		sub: sub, handler: handler,
		wireCalls: make(chan serverCall, 1), httpCalls: make(chan serverCall, 1),
	}
}

type wireProbe struct{ p *serverProbe }

// Submit times serve.Server.Submit as the wire listener's Submitter.
func (w wireProbe) Submit(ctx context.Context, query string) (*core.Answer, error) {
	if !w.p.on.Load() {
		return w.p.sub.Submit(ctx, query)
	}
	start := time.Now()
	ans, err := w.p.sub.Submit(ctx, query)
	offer(w.p.wireCalls, serverCall{start: start, end: time.Now(), ans: ans, err: err})
	return ans, err
}

type httpProbe struct{ p *serverProbe }

// ServeHTTP times the HTTP handler as an http.Handler.
func (h httpProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.p.on.Load() {
		h.p.handler.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.p.handler.ServeHTTP(w, r)
	offer(h.p.httpCalls, serverCall{start: start, end: time.Now()})
}

// offer hands a call to the client without ever blocking the server.
func offer(ch chan serverCall, c serverCall) {
	select {
	case ch <- c:
	default:
	}
}

func (p *serverProbe) calls(transport string) chan serverCall {
	if transport == "http" {
		return p.httpCalls
	}
	return p.wireCalls
}

// reset drops a call left over from an earlier query on a transport.
func (p *serverProbe) reset(transport string) {
	select {
	case <-p.calls(transport):
	default:
	}
}

// take returns the server-side call of the query a transport's client
// just completed, or false when none was recorded.
func (p *serverProbe) take(transport string) (serverCall, bool) {
	select {
	case c := <-p.calls(transport):
		return c, true
	case <-time.After(2 * time.Second):
		return serverCall{}, false
	}
}

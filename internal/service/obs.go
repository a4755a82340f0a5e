package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"penelope/internal/fleetops"
	"penelope/internal/obs"
	"penelope/internal/store"
)

// This file is the server's observability surface: the per-server
// metrics registry (Prometheus text on GET /metrics, the original JSON
// payload on /metrics.json or Accept: application/json), the job
// lifecycle tracer behind /v1/jobs/{id}/trace and /v1/debug/traces,
// and the histograms the hot paths feed. Every server owns its own
// Registry and Tracer — nothing is global — so tests and multi-server
// processes never collide.

// httpLatencyFamily is the per-route request histogram's family name,
// named once because the JSON payload excludes it (scrapes observe
// themselves; see Metrics.Histograms).
const httpLatencyFamily = "penelope_http_request_seconds"

// serverObs bundles the service tier's own instruments. The registry
// also carries the store and fleetops families (registered by their
// NewInstruments constructors) and every tagged stats struct behind the
// JSON payload (obs.RegisterStats), so one scrape sees the whole
// process.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	httpSeconds *obs.HistogramVec // request latency by route pattern
	jobSeconds  *obs.Histogram    // submit → terminal state
	queueWait   *obs.Histogram    // submit → worker pickup (leaders)
	runSeconds  *obs.HistogramVec // runner latency by experiment
}

// initObs builds the registry and tracer and registers the service
// tier's families. It runs before the store opens and before
// initFleetops, so those layers can hang their instruments on the same
// registry; store and fleet stats are registered later, once the
// objects they read exist.
func (s *Server) initObs() {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:    reg,
		tracer: obs.NewTracer(),
		httpSeconds: reg.HistogramVec(httpLatencyFamily,
			"HTTP request latency by route pattern.", "route", nil),
		jobSeconds: reg.Histogram("penelope_job_seconds",
			"Job latency from submission to terminal state, cache hits included.", nil),
		queueWait: reg.Histogram("penelope_job_queue_wait_seconds",
			"Leader job wait from submission to worker pickup; feeds the Retry-After estimator.", nil),
		runSeconds: reg.HistogramVec("penelope_experiment_run_seconds",
			"Runner attempt latency by experiment id (retries observe once per attempt).", "experiment", nil),
	}
	s.obs = o

	obs.RegisterStats(reg, s.jobStats)
	obs.RegisterStats(reg, s.queueStatus)
	obs.RegisterStats(reg, s.cache.Stats)
	obs.RegisterBuildInfo(reg, *s.cfg.BuildInfo)
	reg.CounterFunc("penelope_uptime_seconds", "Whole seconds since the server started.",
		func() uint64 { return uint64(time.Since(s.started).Seconds()) })
	reg.GaugeFunc("penelope_shed_retry_after_seconds",
		"Retry-After the shed estimator would attach to a rejected submission right now.",
		func() float64 { return s.backoff.retryAfter(s.pool.queueDepth(), s.cfg.Workers).Seconds() })

	obs.RegisterRuntimeMetrics(reg)
}

// route registers a handler wrapped with the per-route latency
// histogram. The pattern string itself is the label, so cardinality is
// bounded by the route table, never by request paths.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	hist := s.obs.httpSeconds.With(pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.ObserveDuration(time.Since(start))
	})
}

// handleMetrics negotiates the exposition format: Prometheus text by
// default, the original JSON payload (byte-identical to /metrics.json)
// when the client asks for application/json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.handleMetricsJSON(w, r)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.WriteHeader(http.StatusOK)
	s.obs.reg.WritePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics())
}

// handleJobTrace serves one job's lifecycle trace: spans from admission
// through queue wait, run, store write, to done.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.obs.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleDebugTraces serves recent traces by component
// (?component=job|store|scrub|fleet|alert&n=32); without a component it
// lists the components that have recorded anything.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	component := r.URL.Query().Get("component")
	if component == "" {
		writeJSON(w, http.StatusOK, map[string]any{"components": s.obs.tracer.Components()})
		return
	}
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		n = parsed
	}
	traces := s.obs.tracer.Recent(component, n)
	if traces == nil {
		traces = []obs.TraceSnapshot{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"component": component, "traces": traces})
}

// Registry exposes the server's metrics registry (CLI wiring, tests).
func (s *Server) Registry() *obs.Registry { return s.obs.reg }

// Tracer exposes the server's span tracer (CLI wiring, tests).
func (s *Server) Tracer() *obs.Tracer { return s.obs.tracer }

// storeInstruments builds the disk store's instrument bundle on the
// server's registry.
func (s *Server) storeInstruments() *store.Instruments {
	return store.NewInstruments(s.obs.reg, s.obs.tracer)
}

// fleetInstruments builds the fleetops instrument bundle on the
// server's registry.
func (s *Server) fleetInstruments() *fleetops.Instruments {
	return fleetops.NewInstruments(s.obs.reg, s.obs.tracer)
}

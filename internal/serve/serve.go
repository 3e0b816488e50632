// Package serve is the daemon layer: an HTTP/JSON front end that accepts
// scenario specs (the scenario.Spec wire format) from untrusted clients
// and evaluates them through the engine on any registered backend.
//
// The design goal is graceful degradation under overload, in the spirit of
// the paper's interest in saturating shared resources: admission is a
// bounded queue with load shedding (429 + Retry-After) rather than
// unbounded goroutines, every request carries a deadline that propagates
// into the engine's RunTimeout watchdog (and from there into the machine
// backend's cooperative cancellation), identical in-flight specs are
// coalesced into a single run, and results flow through a sharded LRU so
// repeat specs cost one map lookup. A panicking backend fails one request,
// never the daemon. Drain stops intake, finishes (or deadlines-out) the
// admitted work, and returns — the pimserve binary calls it on SIGTERM.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenario"
)

// Options configures a Server. The zero value is usable: every field has a
// serving-grade default.
type Options struct {
	// Limits caps what one spec may request (nil = scenario defaults).
	Limits *scenario.SpecLimits
	// QueueDepth bounds the admission queue; a request arriving with the
	// queue full is shed with 429 (default 64).
	QueueDepth int
	// Workers is how many runs execute concurrently (default GOMAXPROCS).
	Workers int
	// DefaultTimeout applies when a spec carries no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (default 5m).
	MaxTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// CacheShards and CacheEntriesPerShard size the shared result cache
	// (defaults: engine.DefaultCacheShards, engine defaults per shard).
	CacheShards, CacheEntriesPerShard int
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	return o
}

// RunResponse is the JSON body for a completed run (and, with only Error
// set, for failures).
type RunResponse struct {
	Key          string                      `json:"key,omitempty"`
	Preset       string                      `json:"preset,omitempty"`
	Backend      string                      `json:"backend,omitempty"`
	Seed         uint64                      `json:"seed"`
	Quick        bool                        `json:"quick,omitempty"`
	Replications int                         `json:"replications,omitempty"`
	Metrics      map[string]float64          `json:"metrics,omitempty"`
	Aggregates   map[string]engine.Aggregate `json:"aggregates,omitempty"`
	FromCache    bool                        `json:"from_cache,omitempty"`
	// Coalesced marks a response served by joining another client's
	// identical in-flight run.
	Coalesced bool    `json:"coalesced,omitempty"`
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// Snapshot is the /metrics payload: monotonic request counters plus the
// result cache's own counters.
type Snapshot struct {
	Received  int64 `json:"received"`  // requests hitting /run
	Rejected  int64 `json:"rejected"`  // bad specs (4xx before admission)
	Accepted  int64 `json:"accepted"`  // flights admitted to the queue
	Shed      int64 `json:"shed"`      // flights refused by the full queue
	Coalesced int64 `json:"coalesced"` // requests joined onto another flight
	Deadlines int64 `json:"deadlines"` // requests that timed out (504)
	Panics    int64 `json:"panics"`    // backend panics converted to 500
	Completed int64 `json:"completed"` // flights finishing with a result
	Failed    int64 `json:"failed"`    // flights finishing with an error

	Draining bool              `json:"draining"`
	Queue    int               `json:"queue"`     // flights waiting right now
	QueueCap int               `json:"queue_cap"` // admission queue bound
	Cache    engine.CacheStats `json:"cache"`
}

// flight is one admitted run; coalesced requests wait on the same flight.
type flight struct {
	key      string
	r        scenario.Resolved
	ctx      context.Context // carries the initiator's deadline
	deadline time.Time       // ctx's deadline, checked directly (see runFlight)
	cancel   context.CancelFunc
	started  time.Time
	done     chan struct{} // closed once status/resp are set
	status   int
	resp     RunResponse
}

// Server routes spec requests through a bounded queue into the engine. It
// is safe for concurrent use; construct with New.
type Server struct {
	opts   Options
	limits scenario.SpecLimits
	cache  *engine.ShardedCache
	queue  chan *flight

	mu       sync.Mutex // guards draining + flights
	draining bool
	flights  map[string]*flight

	inflight  sync.WaitGroup // admitted, unfinished flights
	workers   sync.WaitGroup
	closeOnce sync.Once // closes queue after a successful drain

	received, rejected, accepted, shed atomic.Int64
	coalesced, deadlines, panics       atomic.Int64
	completed, failed                  atomic.Int64

	// run executes one resolved spec; a test seam — the default engineRun
	// drives the real engine and backends.
	run func(ctx context.Context, r scenario.Resolved) (engine.Result, error)
}

// New builds a Server and starts its worker pool. Call Drain to stop.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		cache:   engine.NewShardedCache(opts.CacheShards, opts.CacheEntriesPerShard),
		queue:   make(chan *flight, opts.QueueDepth),
		flights: make(map[string]*flight),
	}
	if opts.Limits != nil {
		s.limits = *opts.Limits
	} else {
		s.limits = scenario.DefaultSpecLimits()
	}
	s.run = s.engineRun
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go func() {
			defer s.workers.Done()
			for fl := range s.queue {
				s.runFlight(fl)
			}
		}()
	}
	return s
}

// Handler returns the daemon's HTTP surface: POST /run, GET /healthz,
// GET /readyz, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.drainingNow() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	// Panic recovery outermost: a panic escaping any handler (including a
	// run panic surfacing through response rendering) fails the request,
	// not the process.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					RunResponse{Error: fmt.Sprintf("internal panic: %v", v)})
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

// Metrics snapshots the server counters.
func (s *Server) Metrics() Snapshot {
	return Snapshot{
		Received:  s.received.Load(),
		Rejected:  s.rejected.Load(),
		Accepted:  s.accepted.Load(),
		Shed:      s.shed.Load(),
		Coalesced: s.coalesced.Load(),
		Deadlines: s.deadlines.Load(),
		Panics:    s.panics.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Draining:  s.drainingNow(),
		Queue:     len(s.queue),
		QueueCap:  cap(s.queue),
		Cache:     s.cache.Stats(),
	}
}

// CacheStats exposes the shared result cache's counters.
func (s *Server) CacheStats() engine.CacheStats { return s.cache.Stats() }

// Drain stops admitting work and waits for the admitted flights to finish
// (each is bounded by its own deadline). It returns ctx's error if the
// wait outlives ctx, nil on a clean drain. After a clean drain the worker
// pool has exited; Drain is safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with work in flight: %w", ctx.Err())
	case <-done:
	}
	// All admitted flights finished and no new ones can be admitted, so
	// the queue is empty forever: release the workers. Once guards
	// repeated Drain calls (including a retry after an interrupted one).
	s.closeOnce.Do(func() { close(s.queue) })
	s.workers.Wait()
	return nil
}

func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.received.Add(1)
	if r.Method != http.MethodPost {
		s.rejected.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, RunResponse{Error: "POST a scenario spec"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		s.rejected.Add(1)
		writeJSON(w, http.StatusBadRequest, RunResponse{Error: "unreadable body: " + err.Error()})
		return
	}
	sp, err := scenario.DecodeSpec(body)
	if err != nil {
		s.rejected.Add(1)
		writeJSON(w, http.StatusBadRequest, RunResponse{Error: err.Error()})
		return
	}
	res, err := sp.Resolve(s.limits)
	if err != nil {
		s.rejected.Add(1)
		writeJSON(w, http.StatusBadRequest, RunResponse{Error: err.Error()})
		return
	}

	timeout := res.Timeout
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	if timeout > s.opts.MaxTimeout {
		timeout = s.opts.MaxTimeout
	}
	// The waiter's clock: tied to the client connection, so a dropped
	// caller stops waiting immediately.
	waitCtx, cancelWait := context.WithTimeout(r.Context(), timeout)
	defer cancelWait()

	key := res.Key()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.retryLater(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if fl, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		s.await(w, waitCtx, fl, true)
		return
	}
	// The flight's own clock is detached from the initiating connection:
	// coalesced waiters may outlive the initiator, and a result computed
	// anyway is a cache entry worth keeping. It ends at the waiter's
	// deadline exactly, so a waiter that has given up never finds its
	// flight still runnable.
	deadline, _ := waitCtx.Deadline()
	flCtx, flCancel := context.WithDeadline(context.Background(), deadline)
	fl := &flight{
		key: key, r: res,
		ctx: flCtx, deadline: deadline, cancel: flCancel,
		started: time.Now(),
		done:    make(chan struct{}),
	}
	s.flights[key] = fl
	s.inflight.Add(1)
	s.mu.Unlock()

	select {
	case s.queue <- fl:
		s.accepted.Add(1)
	default:
		// Queue full: shed. Finishing the flight (rather than only
		// erroring this request) also answers anyone who coalesced onto
		// it between the map insert and now.
		s.shed.Add(1)
		s.finish(fl, http.StatusTooManyRequests, RunResponse{Error: "overloaded: admission queue full"})
	}
	s.await(w, waitCtx, fl, false)
}

// await blocks until the flight completes or the waiter's own deadline
// expires, then writes the response.
func (s *Server) await(w http.ResponseWriter, ctx context.Context, fl *flight, joined bool) {
	select {
	case <-fl.done:
		resp := fl.resp
		resp.Coalesced = joined
		if fl.status == http.StatusTooManyRequests || fl.status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
		}
		writeJSON(w, fl.status, resp)
	case <-ctx.Done():
		// The flight keeps running (its own deadline bounds it); only this
		// waiter gives up.
		s.deadlines.Add(1)
		writeJSON(w, http.StatusGatewayTimeout,
			RunResponse{Key: fl.key, Error: "deadline exceeded waiting for the run"})
	}
}

// runFlight executes one admitted flight on a worker goroutine.
func (s *Server) runFlight(fl *flight) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			s.finish(fl, http.StatusInternalServerError,
				RunResponse{Key: fl.key, Error: fmt.Sprintf("backend panic: %v", v)})
		}
	}()
	// The clock, not ctx.Err(): the context learns of its deadline from a
	// timer goroutine, which can lag behind a waiter that already gave up.
	if !time.Now().Before(fl.deadline) {
		// Spent its whole budget queued; don't burn a worker on it.
		s.deadlines.Add(1)
		s.finish(fl, http.StatusGatewayTimeout,
			RunResponse{Key: fl.key, Error: "deadline exceeded before the run started"})
		return
	}
	result, err := s.run(fl.ctx, fl.r)
	elapsed := float64(time.Since(fl.started)) / float64(time.Millisecond)
	if err != nil || (result.Outcome == nil && result.Err != nil) {
		if err == nil {
			err = result.Err
		}
		status := http.StatusInternalServerError
		if fl.ctx.Err() != nil {
			s.deadlines.Add(1)
			status = http.StatusGatewayTimeout
		}
		s.finish(fl, status, RunResponse{Key: fl.key, Error: err.Error(), ElapsedMS: elapsed})
		return
	}
	resp := RunResponse{
		Key:          fl.key,
		Preset:       fl.r.Scenario.Name,
		Backend:      fl.r.Backend,
		Seed:         fl.r.Seed,
		Quick:        fl.r.Quick,
		Replications: fl.r.Replications,
		Metrics:      result.Outcome.Metrics,
		Aggregates:   finiteAggregates(result.Aggregates),
		FromCache:    result.FromCache,
		ElapsedMS:    elapsed,
	}
	if result.Err != nil {
		// Partial: some replicates failed but an aggregate over the
		// survivors exists. Still a result; the error rides along.
		resp.Error = result.Err.Error()
	}
	s.finish(fl, http.StatusOK, resp)
}

// finish publishes the flight's outcome to every waiter and retires it.
func (s *Server) finish(fl *flight, status int, resp RunResponse) {
	s.mu.Lock()
	delete(s.flights, fl.key)
	s.mu.Unlock()
	fl.status, fl.resp = status, resp
	close(fl.done)
	fl.cancel()
	if status == http.StatusOK {
		s.completed.Add(1)
	} else {
		s.failed.Add(1)
	}
	s.inflight.Done()
}

// engineRun is the production run path: a single-use engine around the
// shared result cache, with the request deadline as the replicate watchdog
// and the engine's cooperative-cancel chain armed from ctx.
func (s *Server) engineRun(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
	remaining := time.Hour
	if dl, ok := ctx.Deadline(); ok {
		remaining = time.Until(dl)
		if remaining <= 0 {
			return engine.Result{}, context.DeadlineExceeded
		}
	}
	eng := engine.New(engine.Options{
		Workers:      1, // request-level concurrency is the server's worker pool
		Replications: r.Replications,
		RunTimeout:   remaining,
		Cache:        s.cache,
	})
	exp := &core.Experiment{
		ID:    r.Key(),
		Title: "serve: " + r.Scenario.Name + " on " + r.Backend,
		Run: func(cfg core.Config, _ io.Writer) (*core.Outcome, error) {
			sres, err := scenario.Run(r.Scenario, r.Backend, scenario.Config{
				Seed:   cfg.Seed,
				Quick:  cfg.Quick,
				Cancel: cfg.Cancel,
			})
			if err != nil {
				return nil, err
			}
			return &core.Outcome{Metrics: sres.Metrics}, nil
		},
	}
	cfg := core.Config{
		Seed:   r.Seed,
		Quick:  r.Quick,
		Cancel: func() bool { return ctx.Err() != nil },
	}
	results, err := eng.Run(cfg, []*core.Experiment{exp})
	if len(results) != 1 {
		return engine.Result{}, err
	}
	// Per-experiment failures live on the Result; the joined error would
	// double-report them.
	return results[0], nil
}

func (s *Server) retryLater(w http.ResponseWriter, status int, msg string) {
	s.setRetryAfter(w)
	writeJSON(w, status, RunResponse{Error: msg})
}

func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int(math.Ceil(s.opts.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// finiteAggregates copies aggregates with non-finite CIs zeroed: a single
// replication has an infinite t-interval, which JSON cannot carry.
func finiteAggregates(in map[string]engine.Aggregate) map[string]engine.Aggregate {
	if in == nil {
		return nil
	}
	out := make(map[string]engine.Aggregate, len(in))
	for k, a := range in {
		if math.IsInf(a.CI, 0) || math.IsNaN(a.CI) {
			a.CI = 0
		}
		out[k] = a
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

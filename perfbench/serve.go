package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/benches"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// mixSpec is one request template of the serve-mixed traffic: a preset on
// a backend, in Quick mode.
type mixSpec struct{ preset, backend string }

// serveMix spreads requests over the sim, machine, analytic and queueing
// backends with presets cheap enough that a 2-core server stays far from
// saturation at the open-loop rate.
var serveMix = []mixSpec{
	{"paper-baseline", "sim"},
	{"fig11-point", "sim"},
	{"machine-gups", "machine"},
	{"paper-baseline", "analytic"},
	{"fig11-point", "queueing"},
}

const (
	openRate     = 100.0            // open-loop arrivals per second
	hotPerSpec   = 2                // hot seeds per template: the warmed pool is 2×len(serveMix)
	verifySample = 200              // responses checked against a direct scenario.Run
	spinLead     = time.Millisecond // the open-loop generator spins, not sleeps, this close to a due time
)

// request is one generated request.
type request struct {
	spec mixSpec
	seed uint64
	hot  bool
}

// class is what decides a request's cost: "hit" for a hot spec, else the
// template whose backend runs.
func (r request) class() string {
	if r.hot {
		return "hit"
	}
	return r.spec.preset + "/" + r.spec.backend
}

func (r request) body() []byte {
	return []byte(fmt.Sprintf(`{"preset":%q,"backend":%q,"seed":%d,"quick":true}`, r.spec.preset, r.spec.backend, r.seed))
}

// reply is one successful response.
type reply struct {
	req     request
	metrics map[string]float64
	openMS  float64 // open-loop latency from due time; 0 in other phases
}

// trafficGen draws the mix from the run seed. Requests alternate between
// a hot spec from the warmed pool (a cache hit: the read path) and a seed
// never used before (a backend run plus a cache insert: the write path).
// Hot specs and fresh templates are each dealt in seeded shuffled rounds,
// so every run holds nearly the same number of each.
type trafficGen struct {
	st         *rng.Stream
	hot        []request
	fresh      uint64
	n          int
	hots, news []int // the rest of the current rounds
}

func newTrafficGen(seed uint64, stream uint64) *trafficGen {
	g := &trafficGen{st: rng.NewWithStream(seed, stream)}
	sm := rng.SplitMix64{State: seed}
	for _, sp := range serveMix {
		for i := 0; i < hotPerSpec; i++ {
			// Hot seeds have the top bit set, fresh seeds never do.
			g.hot = append(g.hot, request{spec: sp, seed: sm.Next() | 1<<63, hot: true})
		}
	}
	// Each generator (stream < 256) draws fresh seeds from its own block
	// of 2^40.
	g.fresh = (seed%(1<<15))<<48 | stream<<40
	return g
}

func (g *trafficGen) next() request {
	g.n++
	if g.n%2 == 0 {
		if len(g.hots) == 0 {
			g.hots = g.st.Perm(len(g.hot))
		}
		i := g.hots[0]
		g.hots = g.hots[1:]
		return g.hot[i]
	}
	if len(g.news) == 0 {
		g.news = g.st.Perm(len(serveMix))
	}
	i := g.news[0]
	g.news = g.news[1:]
	g.fresh++
	return request{spec: serveMix[i], seed: g.fresh}
}

// send runs one request through the handler in-process and checks the
// reply: only a 200 with metrics and no error is a success.
func send(h http.Handler, r request) (map[string]float64, error) {
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(r.body()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp serve.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("%s/%s seed %d: status %d, undecodable body: %v", r.spec.preset, r.spec.backend, r.seed, rec.Code, err)
	}
	if rec.Code != http.StatusOK || resp.Error != "" || len(resp.Metrics) == 0 {
		return nil, fmt.Errorf("%s/%s seed %d: status %d: %s", r.spec.preset, r.spec.backend, r.seed, rec.Code, resp.Error)
	}
	return resp.Metrics, nil
}

// serveSetup builds a server and warms the hot pool through it.
func (b *bench) serveSetup(g *trafficGen) (*serve.Server, error) {
	s := serve.New(serve.Options{Workers: b.nproc})
	for _, r := range g.hot {
		if _, err := send(s.Handler(), r); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", err), drain(s))
		}
	}
	return s, nil
}

// serveCycles is how many times a run goes through its three phases, so
// that slow stretches of a shared host fall on all of them alike.
const serveCycles = 3

// serveRun accumulates one serve-mixed run.
type serveRun struct {
	b *bench
	s *serve.Server
	h http.Handler

	mu      sync.Mutex
	replies []reply // every success, for verifyServe

	sent                 int
	lates                []float64            // open-loop generator lateness, ms
	openAll, openHot     []float64            // open-loop latencies from due time, ms
	openByClass          map[string][]float64 // open-loop latencies by request class, ms
	singleByClass        map[string][]float64 // single-caller latencies by request class, ms
	traced, untraced     []float64            // open-loop latencies by tracing, ms
	queueMax             int
	openTime             time.Duration
	openAlloc            uint64
	done                 int // closed-loop completions
	closedTime           time.Duration
	singleAll, singleHot []float64 // single-caller latencies, ms
}

// record counts one request and keeps its reply when it succeeded.
func (sr *serveRun) record(rep reply, err error) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.b.op(err)
	if err != nil {
		return false
	}
	sr.replies = append(sr.replies, rep)
	return true
}

// runServe is the serve-mixed workload: pimserve's handler driven
// in-process (no sockets). A run goes serveCycles times through three
// phases that split the measured time:
//   - open loop (70%): openRate requests per second at seeded Poisson
//     arrival times, each timed from when it was due, so a stall also
//     delays the requests queued behind it. The request count is fixed
//     by the run length, so every run has the same number of samples;
//   - closed loop (20%): nproc callers, each sending its next request when
//     the previous one returns;
//   - single caller (10%): one request at a time, the unloaded latency.
func runServe(b *bench) (ret error) {
	// Set-up is repeated and its median reported: a fresh server each
	// time, with the hot pool warmed through it.
	var setups []float64
	var s *serve.Server
	for i := 0; i < 15; i++ {
		if s != nil {
			if err := drain(s); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = b.serveSetup(newTrafficGen(b.seed, 1)); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := drain(s); err != nil && ret == nil {
			ret = err
		}
	}()

	sr := &serveRun{b: b, s: s, h: s.Handler(), openByClass: map[string][]float64{}, singleByClass: map[string][]float64{}}
	perCycle := int(openRate * 0.70 * b.seconds.Seconds() / serveCycles)
	closed := time.Duration(float64(b.seconds) * 0.20 / serveCycles)
	single := time.Duration(float64(b.seconds) * 0.10 / serveCycles)
	open := newTrafficGen(b.seed, 2)
	arrivals := rng.NewWithStream(b.seed, 3)
	callers := make([]*trafficGen, b.nproc)
	for c := range callers {
		callers[c] = newTrafficGen(b.seed, uint64(4+c))
	}
	lone := newTrafficGen(b.seed, 64)
	for c := 0; c < serveCycles; c++ {
		sr.openLoop(open, arrivals, perCycle)
		sr.closedLoop(callers, closed)
		sr.singleCaller(lone, single)
	}

	overhead := b.verifyServe(sr.replies)
	snap := s.Metrics()
	for _, c := range []struct {
		name string
		n    int64
	}{{"shed", snap.Shed}, {"deadlines", snap.Deadlines}, {"panics", snap.Panics}} {
		if c.n > 0 {
			b.op(fmt.Errorf("server counted %d %s", c.n, c.name))
		}
	}

	tput := rate(float64(sr.done), ms(sr.closedTime))
	tail := supportedTail(len(sr.openAll))
	hitTail := supportedTail(len(sr.openHot))
	b.set("setup_s", median(setups))
	b.set("alloc_mb", mib(sr.openAlloc)/float64(sr.sent))
	b.set("wall_ms", meanOfMedians(sr.openByClass))
	b.set("serial_ms", meanOfMedians(sr.singleByClass))
	b.note("serve-mixed: open loop %d sent at %.0f/s over %.1fs: p50 %.3f ms, p%g %.3f ms (n=%d); hits p%g %.3f ms (n=%d); generator late p50 %.3f p99 %.3f ms",
		sr.sent, openRate, sr.openTime.Seconds(), percentile(sr.openAll, 0.5), tail*100, percentile(sr.openAll, tail), len(sr.openAll),
		hitTail*100, percentile(sr.openHot, hitTail), len(sr.openHot), percentile(sr.lates, 0.5), percentile(sr.lates, 0.99))
	b.note("serve-mixed: closed loop %d callers: %d done, %.1f req/s", b.nproc, sr.done, tput)
	b.note("serve-mixed: single caller p50 %.3f ms (n=%d)", percentile(sr.singleAll, 0.5), len(sr.singleAll))
	for _, c := range sortedKeys(sr.openByClass) {
		b.note("serve-mixed: %-24s open-loop median %.3f ms (n=%d), single-caller median %.3f ms (n=%d)",
			c, median(sr.openByClass[c]), len(sr.openByClass[c]), median(sr.singleByClass[c]), len(sr.singleByClass[c]))
	}

	if b.tr != nil {
		b.set("serve.p50_ms", percentile(sr.openAll, 0.5))
		b.set("serve.tail_ms", percentile(sr.openAll, tail))
		b.set("serve.tail_pct", tail*100)
		b.set("serve.hit_tail_ms", percentile(sr.openHot, hitTail))
		b.set("serve.hit_tail_pct", hitTail*100)
		b.set("serve.samples", float64(len(sr.openAll)))
		b.set("serve.hit_samples", float64(len(sr.openHot)))
		b.set("serve.tput_rps", tput)
		b.set("serve.hit_idle_us", percentile(sr.singleHot, 0.5)*1000)
		b.set("serve.overhead_ms", overhead)
		b.set("serve.accepted", float64(snap.Accepted))
		b.set("serve.shed", float64(snap.Shed))
		b.set("serve.coalesced", float64(snap.Coalesced))
		b.set("serve.deadlines", float64(snap.Deadlines))
		b.set("serve.panics", float64(snap.Panics))
		b.set("serve.cache_hit_ratio", snap.Cache.HitRate())
		b.set("serve.cache_evictions", float64(snap.Cache.Evictions))
		b.set("serve.queue_max", float64(sr.queueMax))
		b.set("serve.gen_late_p99_ms", percentile(sr.lates, 0.99))
		b.set("serve.sent", float64(sr.sent))
		b.set("serve.ok", float64(len(sr.openAll)))
		ns, _ := b.micro("serve.decode", benches.ServeSpecDecode)
		b.set("serve.decode_us", ns/1e3)
		b.traceOverhead(sr.traced, sr.untraced)
		b.layerMicros()
	}
	return nil
}

// openLoop sends n requests at seeded Poisson arrival times, each on its
// own goroutine, and waits for all of them.
func (sr *serveRun) openLoop(g *trafficGen, arrivals *rng.Stream, n int) {
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	due := start
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(arrivals.ExpRate(openRate) * float64(time.Second)))
		// Sleep alone wakes about half a millisecond late on a quiet
		// host, which would be counted as server latency; sleep to
		// spinLead before the due time and spin the rest.
		if d := time.Until(due) - spinLead; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
		}
		sr.lates = append(sr.lates, ms(time.Since(due)))
		if q := sr.s.Metrics().Queue; q > sr.queueMax {
			sr.queueMax = q
		}
		r := g.next()
		// In a traced run every other pair of requests records spans
		// (pairs, because hits and misses alternate), which prices the
		// tracing itself.
		useTrace := sr.b.tr != nil && sr.sent/2%2 == 0
		sr.sent++
		wg.Add(1)
		go func(r request, due time.Time) {
			defer wg.Done()
			var id int64
			if useTrace {
				id = sr.b.tr.begin("serve.request", 0)
			}
			m, err := send(sr.h, r)
			lat := ms(time.Since(due))
			sr.b.tr.end(id)
			if !sr.record(reply{r, m, lat}, err) {
				return
			}
			sr.mu.Lock()
			defer sr.mu.Unlock()
			sr.openAll = append(sr.openAll, lat)
			if r.hot {
				sr.openHot = append(sr.openHot, lat)
			}
			sr.openByClass[r.class()] = append(sr.openByClass[r.class()], lat)
			if useTrace {
				sr.traced = append(sr.traced, lat)
			} else {
				sr.untraced = append(sr.untraced, lat)
			}
		}(r, due)
	}
	wg.Wait()
	sr.openTime += time.Since(start)
	runtime.ReadMemStats(&m1)
	sr.openAlloc += m1.TotalAlloc - m0.TotalAlloc
}

// closedLoop runs one caller per generator for d.
func (sr *serveRun) closedLoop(callers []*trafficGen, d time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, g := range callers {
		wg.Add(1)
		go func(g *trafficGen) {
			defer wg.Done()
			for time.Since(start) < d {
				r := g.next()
				m, err := send(sr.h, r)
				if sr.record(reply{req: r, metrics: m}, err) {
					sr.mu.Lock()
					sr.done++
					sr.mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	sr.closedTime += time.Since(start)
}

// singleCaller sends one request at a time for d.
func (sr *serveRun) singleCaller(g *trafficGen, d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		r := g.next()
		t0 := time.Now()
		m, err := send(sr.h, r)
		lat := ms(time.Since(t0))
		if sr.record(reply{req: r, metrics: m}, err) {
			sr.singleAll = append(sr.singleAll, lat)
			if r.hot {
				sr.singleHot = append(sr.singleHot, lat)
			}
			sr.singleByClass[r.class()] = append(sr.singleByClass[r.class()], lat)
		}
	}
}

// verifyServe re-runs a seeded sample of the successful replies directly
// through scenario.Run and fails each whose metrics differ. It returns
// the serving overhead: the median, over the sampled open-loop misses, of
// the served latency minus the direct run time of the same spec, in ms.
func (b *bench) verifyServe(replies []reply) float64 {
	st := rng.NewWithStream(b.seed, 99)
	n := verifySample
	if n > len(replies) {
		n = len(replies)
	}
	var overhead []float64
	for _, i := range st.Perm(len(replies))[:n] {
		r := replies[i]
		sc, err := scenario.Find(r.req.spec.preset)
		if err != nil {
			b.op(err)
			continue
		}
		t0 := time.Now()
		res, err := scenario.Run(sc, r.req.spec.backend, scenario.Config{Seed: r.req.seed, Quick: true})
		d := ms(time.Since(t0))
		if err == nil && !reflect.DeepEqual(res.Metrics, r.metrics) {
			err = fmt.Errorf("%s/%s seed %d: served metrics %v, direct run %v", r.req.spec.preset, r.req.spec.backend, r.req.seed, r.metrics, res.Metrics)
		}
		b.op(err)
		if !r.req.hot && r.openMS > 0 {
			overhead = append(overhead, r.openMS-d)
		}
	}
	if len(overhead) == 0 {
		return 0
	}
	return median(overhead)
}

// drain stops a server and waits for its workers.
func drain(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.Drain(ctx)
}

package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// coreTimed are the experiments whose serial-pass time is reported on its
// own (core.<id>_ms): the ones that carry most of a pass.
var coreTimed = []string{
	"scenarios", "fig11", "fig5", "fig6", "accuracy", "fig12",
	"ablation-mtcontrol", "ablation-topology", "ablation-overhead", "replication",
}

// suitePass is one timed run of every registered experiment.
type suitePass struct {
	wall    time.Duration
	alloc   uint64
	span    int64             // the pass's span id (traced runs)
	prints  map[string]uint64 // experiment id -> FNV-64 of its rendered output
	hits    int               // engine cache hits (must stay 0)
	workers int
	results []engine.Result
}

// runSuite is the suite-quick workload: the paper reproducer's run. Every
// registered experiment in Quick mode goes through engine.Run with a
// fresh engine (no result cache) per pass, alternating passes with
// Workers = nproc and Workers = 1. The first pass fills the process-wide
// scenario memo caches, so it is set-up.
func runSuite(b *bench) error {
	exps := core.Registry()
	// The experiments run at the paper's default seed whatever --seed
	// says: the Quick-mode self-checks are tuned to it, and about half of
	// seeds 1-40 fail one of them (scenarios cross-backend agreement,
	// ablation-cache, replication). Inner sweeps run on one worker, as
	// pimstudy pins them when the engine fans out; the serial pass is then
	// serial throughout.
	cfg := core.DefaultConfig()
	cfg.Quick, cfg.Workers = true, 1

	t0 := time.Now()
	ref := b.suitePass(exps, cfg, b.nproc, "setup")
	setup := time.Since(t0)
	b.checkSuite(ref, nil)

	var par, ser []suitePass
	var traced, untraced []float64
	start := time.Now()
	for i := 0; len(ser) == 0 || time.Since(start) < b.seconds; i++ {
		tr := b.tr
		if tr != nil && i%3 == 2 {
			// Every third parallel pass runs without spans, which prices
			// the tracing itself.
			b.tr = nil
		}
		p := b.suitePass(exps, cfg, b.nproc, "pass")
		if b.tr == nil {
			untraced = append(untraced, ms(p.wall))
		} else {
			traced = append(traced, ms(p.wall))
		}
		b.tr = tr
		b.checkSuite(p, ref.prints)
		par = append(par, p)
		if len(ser) > 0 && time.Since(start) >= b.seconds {
			break
		}
		s := b.suitePass(exps, cfg, 1, "serial-pass")
		b.checkSuite(s, ref.prints)
		ser = append(ser, s)
	}

	var walls, serials, allocs []float64
	for _, p := range par {
		walls = append(walls, ms(p.wall))
		allocs = append(allocs, mib(p.alloc))
	}
	for _, p := range ser {
		serials = append(serials, ms(p.wall))
	}
	b.set("setup_s", setup.Seconds())
	b.set("wall_ms", median(walls))
	b.set("serial_ms", median(serials))
	b.set("alloc_mb", median(allocs))
	b.note("suite-quick: %d experiments, %d parallel passes (workers %d), %d serial passes", len(exps), len(par), b.nproc, len(ser))
	b.note("suite-quick: parallel pass ms %v", roundAll(walls))
	b.note("suite-quick: serial pass ms %v", roundAll(serials))
	ids := make([]string, 0, len(ref.prints))
	for id := range ref.prints {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b.note("fingerprint %-22s %016x", id, ref.prints[id])
	}

	if b.tr != nil {
		b.suiteLayers(par, ser, traced, untraced)
		b.layerMicros()
	}
	return nil
}

// suitePass runs every experiment once through a fresh engine.
func (b *bench) suitePass(exps []*core.Experiment, cfg core.Config, workers int, name string) suitePass {
	p := suitePass{workers: workers, prints: map[string]uint64{}, span: b.tr.begin(name, 0)}
	opts := engine.Options{Workers: workers}
	if tr := b.tr; tr != nil {
		open := map[string]int64{}
		opts.Events = func(ev engine.Event) {
			switch ev.Kind {
			case engine.EventStart:
				open[ev.ID] = tr.begin("core."+ev.ID, p.span)
			case engine.EventDone, engine.EventError:
				tr.end(open[ev.ID])
			case engine.EventCacheHit:
				p.hits++
			}
		}
	}
	var results []engine.Result
	p.wall, p.alloc = b.timed(p.span, func() {
		results, _ = engine.New(opts).Run(cfg, exps) // failures are on each Result
	})

	for _, r := range results {
		h := fnv.New64a()
		h.Write(r.Output)
		p.prints[r.ID] = h.Sum64()
	}
	p.results = results
	return p
}

// checkSuite counts each experiment of a pass as one operation. It fails
// when the experiment errored, failed one of its own checks, came from a
// cache, or rendered output different from the set-up pass's (want; nil
// for the set-up pass itself).
func (b *bench) checkSuite(p suitePass, want map[string]uint64) {
	for _, r := range p.results {
		var err error
		switch {
		case r.Err != nil:
			err = fmt.Errorf("%s: %v", r.ID, r.Err)
		case r.Outcome == nil:
			err = fmt.Errorf("%s: no outcome", r.ID)
		case len(r.Outcome.Failed()) > 0:
			c := r.Outcome.Failed()[0]
			err = fmt.Errorf("%s: check %s failed: %s", r.ID, c.Name, c.Detail)
		case r.FromCache:
			err = fmt.Errorf("%s: served from a cache", r.ID)
		case want != nil && want[r.ID] != p.prints[r.ID]:
			err = fmt.Errorf("%s: output fingerprint %016x, set-up pass gave %016x", r.ID, p.prints[r.ID], want[r.ID])
		}
		b.op(err)
	}
	if p.hits > 0 {
		b.op(fmt.Errorf("engine served %d experiments from a cache", p.hits))
	}
}

// suiteLayers reports the engine and core layers from the traced passes:
// experiment spans come from the engine's start/done events.
func (b *bench) suiteLayers(par, ser []suitePass, traced, untraced []float64) {
	var walls, selfs, effs, crits, sums []float64
	hits, failed := 0, 0
	for _, p := range append(append([]suitePass(nil), par...), ser...) {
		hits += p.hits
		for _, r := range p.results {
			if r.Outcome != nil {
				failed += len(r.Outcome.Failed())
			}
		}
	}
	for _, p := range par {
		if p.span == 0 {
			continue
		}
		kids := b.tr.children(p.span)
		whole := b.tr.interval(p.span)
		var busy, longest int64
		for _, k := range kids {
			busy += k.end - k.start
			if k.end-k.start > longest {
				longest = k.end - k.start
			}
		}
		wall := whole.end - whole.start
		walls = append(walls, float64(wall)/1e6)
		selfs = append(selfs, float64(selfTime(whole, kids))/1e6)
		effs = append(effs, float64(busy)/(float64(wall)*float64(p.workers)))
		crits = append(crits, float64(longest)/1e6)
	}
	var serialSpans []int64
	for _, p := range ser {
		var busy int64
		for _, k := range b.tr.children(p.span) {
			busy += k.end - k.start
		}
		sums = append(sums, float64(busy)/1e6)
		serialSpans = append(serialSpans, p.span)
	}
	b.set("engine.wall_ms", median(walls))
	b.set("engine.self_ms", median(selfs))
	b.set("engine.parallel_eff", median(effs))
	b.set("engine.cache_hits", float64(hits))
	b.set("core.sum_ms", median(sums))
	b.set("core.critical_ms", median(crits))
	b.set("core.checks_failed", float64(failed))
	for _, id := range coreTimed {
		b.set("core."+id+"_ms", median(b.tr.durationsMS("core."+id, serialSpans)))
	}
	b.traceOverhead(traced, untraced)
}

// roundAll rounds each value to 0.1 for the human-readable report.
func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*10) / 10
	}
	return out
}

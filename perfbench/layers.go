package main

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/benches"
	"repro/internal/parcelsys"
	"repro/internal/scenario"
)

// timed runs fn after a GC and returns its wall time and the bytes it
// allocated. It closes span id (opened by the caller, 0 when untraced)
// when fn returns.
func (b *bench) timed(id int64, fn func()) (time.Duration, uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b.tr.end(id)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc
}

// traceOverhead reports how much slower the traced units of a run were
// than its untraced ones, as a fraction of the untraced median.
func (b *bench) traceOverhead(traced, untraced []float64) {
	if len(traced) == 0 || len(untraced) == 0 {
		return
	}
	b.set("bench.trace_overhead_frac", median(traced)/median(untraced)-1)
}

var initTesting sync.Once

// micro runs one internal/benches driver for a short fixed time and
// returns its ns/op and allocs/op. The drivers are the same code the
// repository's own go test benchmarks run.
func (b *bench) micro(name string, fn func(*testing.B)) (nsPerOp, allocsPerOp float64) {
	initTesting.Do(func() {
		testing.Init()
		// The flag exists once testing.Init has run; 200ms keeps the
		// micros of one traced run to a few seconds.
		if err := flag.Set("test.benchtime", "200ms"); err != nil {
			panic(err)
		}
	})
	id := b.tr.begin(name, 0)
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		fn(tb)
	})
	b.tr.end(id)
	if r.N == 0 {
		// The driver failed; the run reports it as a failed operation.
		b.op(fmt.Errorf("micro %s did not run", name))
		return 0, 0
	}
	b.op(nil)
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.AllocsPerOp())
}

// layerMicros measures the layers every workload sits on — the DES
// kernel, the study-1 and queueing models, VM decode and the scenario
// dispatch — with the repository's own micro drivers.
func (b *bench) layerMicros() {
	ns, allocs := b.micro("sim.schedule", benches.KernelSchedule)
	b.set("sim.schedule_ns", ns)
	b.set("sim.schedule_allocs", allocs)
	ns, _ = b.micro("sim.act_switch", benches.KernelActivityChain)
	b.set("sim.act_switch_ns", ns)
	ns, _ = b.micro("hostpim.simulate", benches.HostPIMSimulate)
	b.set("hostpim.simulate_ms", ns/1e6)
	ns, _ = b.micro("queueing.mm1", benches.MM1Simulation)
	b.set("queueing.mm1_ms", ns/1e6)
	ns, allocs = b.micro("isa.decode", benches.MachineDecode)
	b.set("isa.decode_ns", ns)
	b.set("isa.decode_allocs", allocs)
	b.scenarioProbe()
}

// probeSeeds is how many fresh seeds scenarioProbe runs per template.
const probeSeeds = 15

// scenarioProbe times scenario.Run per backend over the serve-mixed
// templates, and the dispatch cost on top of the model: scenario.Run of
// fig11-point on the sim backend minus parcelsys.Run of the same
// parameters and seed, as the median of the paired differences.
func (b *bench) scenarioProbe() {
	calls := map[string][]float64{}
	sc := scenario.MustFind("fig11-point")
	var dispatch []float64
	for i := 0; i < probeSeeds; i++ {
		cfg := scenario.Config{Seed: b.seed<<8 | uint64(i) | 1<<62, Quick: true}
		var viaScenario float64
		for _, t := range serveMix {
			s := scenario.MustFind(t.preset)
			id := b.tr.begin("scenario."+t.backend, 0)
			t0 := time.Now()
			_, err := scenario.Run(s, t.backend, cfg)
			d := ms(time.Since(t0))
			b.tr.end(id)
			b.op(err)
			calls[t.backend] = append(calls[t.backend], d)
			if t.preset == sc.Name && t.backend == "sim" {
				viaScenario = d
			}
		}
		pp, err := sc.ParcelParams(cfg)
		if err == nil {
			id := b.tr.begin("parcelsys.run", 0)
			t0 := time.Now()
			_, err = parcelsys.Run(pp)
			dispatch = append(dispatch, viaScenario-ms(time.Since(t0)))
			b.tr.end(id)
		}
		b.op(err)
	}
	for _, name := range []string{"sim", "machine", "analytic", "queueing"} {
		b.set("scenario."+name+"_call_ms", median(calls[name]))
	}
	b.set("scenario.dispatch_ms", median(dispatch))
}

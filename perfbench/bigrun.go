package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/parcelsys"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// bigPoint is one large single design point of the bigrun workload.
type bigPoint struct {
	backend string
	sc      scenario.Scenario
	// reps is how many times a pass runs the point. The counts give the
	// three points similar shares of a pass on a 2-core host, so a
	// slowdown of any one of them moves the pass time.
	reps int
}

// bigPoints are the bigrun workload's three points, none in Quick mode
// (Quick would clamp the VM programs to 64 updates):
//   - parcel-scale-1k on the sim backend: the partitioned DES kernel;
//   - machine-gups-256 with 1024 updates per thread: the VM's windowed
//     PDES path;
//   - machine-dram widened to 64 nodes and 8192 words: its MemDelay hook
//     keeps the VM on the per-cycle interpreter.
func bigPoints() []bigPoint {
	gups := scenario.MustFind("machine-gups-256")
	gups.Workload.Updates = 1024
	dram := scenario.MustFind("machine-dram")
	dram.Machine.N = 64
	dram.Workload.Updates = 8192
	return []bigPoint{
		{"sim", scenario.MustFind("parcel-scale-1k"), 1},
		{"machine", gups, 3},
		{"machine", dram, 30},
	}
}

// bigPass is one pass over the big points at one worker count.
type bigPass struct {
	runs   [][]float64 // per point, the time of each run in ms
	allocs []float64   // per point, MiB per run
}

func (p bigPass) total() float64 {
	var t float64
	for _, rs := range p.runs {
		for _, r := range rs {
			t += r
		}
	}
	return t
}

// runMS collects every run time of point j across passes.
func runMS(passes []bigPass, j int) []float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, p.runs[j]...)
	}
	return xs
}

// passMS is the time of one pass built from each point's median run
// time, weighted by its reps. Taking medians per point uses every run as
// a sample (in a 30-second run the DRAM point alone gives ~180), where a
// median of whole passes would have only a handful.
func passMS(points []bigPoint, passes []bigPass) float64 {
	var t float64
	for j, pt := range points {
		t += float64(pt.reps) * median(runMS(passes, j))
	}
	return t
}

// runBigrun is the bigrun workload: the big points through scenario.Run,
// alternating passes with RunParallel = nproc and RunParallel = 1. The
// set-up runs every point once at RunParallel = 1; every later run must
// reproduce those simulated metrics exactly, whatever the worker count.
func runBigrun(b *bench) error {
	points := bigPoints()
	cfg := scenario.Config{Seed: b.seed}

	t0 := time.Now()
	ref := make([]map[string]float64, len(points))
	for i, pt := range points {
		sc := pt.sc
		sc.Machine.RunParallel = 1
		res, err := scenario.Run(sc, pt.backend, cfg)
		if err != nil {
			return fmt.Errorf("set-up run of %s: %w", sc.Name, err)
		}
		ref[i] = res.Metrics
	}
	setup := time.Since(t0)

	var par, ser []bigPass
	var traced, untraced []float64
	start := time.Now()
	for i := 0; len(ser) == 0 || time.Since(start) < b.seconds; i++ {
		tr := b.tr
		if tr != nil && i%3 == 2 {
			b.tr = nil // an untraced pass prices the tracing
		}
		p := b.bigPass(points, cfg, b.nproc, "pass", ref)
		if b.tr == nil {
			untraced = append(untraced, p.total())
		} else {
			traced = append(traced, p.total())
		}
		b.tr = tr
		par = append(par, p)
		if len(ser) > 0 && time.Since(start) >= b.seconds {
			break
		}
		ser = append(ser, b.bigPass(points, cfg, 1, "serial-pass", ref))
	}

	var allocs []float64
	for _, p := range par {
		var a float64
		for _, x := range p.allocs {
			a += x
		}
		allocs = append(allocs, a/float64(len(points)))
	}
	b.set("setup_s", setup.Seconds())
	b.set("wall_ms", passMS(points, par))
	b.set("serial_ms", passMS(points, ser))
	b.set("alloc_mb", median(allocs))
	b.note("bigrun: %d passes at RunParallel %d, %d at 1", len(par), b.nproc, len(ser))
	for j, p := range points {
		pr, sr := runMS(par, j), runMS(ser, j)
		b.note("bigrun: %-18s x%-2d ms per run: parallel median %.1f (n=%d), serial median %.1f (n=%d); metrics %v",
			p.sc.Name, p.reps, median(pr), len(pr), median(sr), len(sr), ref[j])
	}

	if b.tr != nil {
		b.bigrunLayers(points, cfg, par, ref)
		b.traceOverhead(traced, untraced)
		b.layerMicros()
	}
	return nil
}

// bigPass runs every point reps times at the given RunParallel and checks
// each run's metrics against the set-up run's.
func (b *bench) bigPass(points []bigPoint, cfg scenario.Config, workers int, name string, ref []map[string]float64) bigPass {
	var p bigPass
	root := b.tr.begin(name, 0)
	for j, pt := range points {
		sc := pt.sc
		sc.Machine.RunParallel = workers
		var runs []float64
		var alloc uint64
		for r := 0; r < pt.reps; r++ {
			var res scenario.Result
			var err error
			d, a := b.timed(b.tr.begin("scenario."+sc.Name, root), func() { res, err = scenario.Run(sc, pt.backend, cfg) })
			runs = append(runs, ms(d))
			alloc += a
			if err == nil && !reflect.DeepEqual(res.Metrics, ref[j]) {
				err = fmt.Errorf("metrics %v differ from the set-up run's %v", res.Metrics, ref[j])
			}
			if err != nil {
				err = fmt.Errorf("%s at RunParallel %d: %w", sc.Name, workers, err)
			}
			b.op(err)
		}
		p.runs = append(p.runs, runs)
		p.allocs = append(p.allocs, mib(alloc)/float64(pt.reps))
	}
	b.tr.end(root)
	return p
}

// bigrunLayers times the models under the big points directly:
// parcelsys.Run with the parcel point's parameters, and the VM under the
// GUPS point with NewMachine/LoadAll timed apart from Machine.Run, each at
// nproc workers and at one. The DRAM point's numbers come from its
// scenario runs. Rates divide simulated work by the scenario.Run time of
// the parallel passes.
func (b *bench) bigrunLayers(points []bigPoint, cfg scenario.Config, par []bigPass, ref []map[string]float64) {
	// pointMS is the median time of one run of point j in the parallel
	// passes.
	pointMS := func(j int) float64 { return median(runMS(par, j)) }

	// parcelsys under parcel-scale-1k.
	pp, err := points[0].sc.ParcelParams(cfg)
	if err != nil {
		b.op(err)
		return
	}
	var runs [2]time.Duration
	var ops int64
	var alloc uint64
	for i, w := range []int{b.nproc, 1} {
		pp.RunParallel = w
		var res parcelsys.Result
		d, a := b.timed(b.tr.begin("parcelsys.run", 0), func() { res, err = parcelsys.Run(pp) })
		b.op(err)
		runs[i] = d
		if i == 0 {
			ops, alloc = res.Control.Ops+res.Test.Ops, a
		} else if res.Control.Ops+res.Test.Ops != ops {
			b.op(fmt.Errorf("parcelsys: %d ops at %d workers, %d at 1", ops, b.nproc, res.Control.Ops+res.Test.Ops))
		}
	}
	b.set("parcelsys.run_ms", ms(runs[0]))
	b.set("parcelsys.serial_ms", ms(runs[1]))
	b.set("parcelsys.par_speedup", speedup(ms(runs[1]), ms(runs[0])))
	b.set("parcelsys.ops", float64(ops))
	b.set("parcelsys.alloc_mb", mib(alloc))
	b.set("parcelsys.ops_per_s", rate(float64(ops), pointMS(0)))

	// The VM under machine-gups-256.
	gups := points[1].sc
	var setups, vmRuns [2]time.Duration
	for i, w := range []int{b.nproc, 1} {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		m, setup, err := gupsMachine(gups, cfg, w)
		if err != nil {
			b.op(err)
			return
		}
		var cycles int64
		d, _ := b.timed(b.tr.begin("isa.run", 0), func() { cycles, err = m.Run() })
		runtime.ReadMemStats(&m1)
		b.op(err)
		vmRuns[i] = d
		setups[i] = setup
		instr := m.TotalInstructions()
		if wi, wc := ref[1][scenario.MetricInstructions], ref[1][scenario.MetricTotal]; float64(instr) != wi || float64(cycles) != wc {
			b.op(fmt.Errorf("direct VM run at %d workers: %d instructions in %d cycles, the scenario run %g in %g", w, instr, cycles, wi, wc))
		}
		if i == 0 {
			b.set("isa.instructions", float64(instr))
			b.set("isa.cycles", float64(cycles))
			b.set("isa.alloc_mb", mib(m1.TotalAlloc-m0.TotalAlloc))
		}
	}
	b.set("isa.setup_ms", ms(setups[0]))
	b.set("isa.run_ms", ms(vmRuns[0]))
	b.set("isa.serial_run_ms", ms(vmRuns[1]))
	b.set("isa.par_speedup", speedup(ms(vmRuns[1]), ms(vmRuns[0])))
	b.set("isa.instr_per_s", rate(ref[1][scenario.MetricInstructions], pointMS(1)))

	dram := ref[2]
	b.set("isa.dram_run_ms", pointMS(2))
	b.set("isa.dram_instructions", dram[scenario.MetricInstructions])
	b.set("isa.dram_instr_per_s", rate(dram[scenario.MetricInstructions], pointMS(2)))
	b.set("dram.row_hit", dram[scenario.MetricRowHit])
}

// gupsMachine builds the VM of a GUPS machine scenario through the isa
// API — the same timing, topology, program and thread seeds the machine
// backend stages — and returns it ready to Run, with the set-up time.
// bigrunLayers checks that it executes exactly the scenario run's
// instructions and cycles.
func gupsMachine(sc scenario.Scenario, cfg scenario.Config, workers int) (*isa.Machine, time.Duration, error) {
	t0 := time.Now()
	mem := int64(math.Round(sc.Machine.MemCycles))
	words := sc.Machine.MemWords
	if words == 0 {
		words = 16384
	}
	m, err := isa.NewMachine(sc.Machine.N, words, isa.Timing{
		MemCycles: mem, WideMemCycles: mem, SpawnCycles: 2,
		NetLatency: int64(math.Round(sc.Machine.Latency)),
	})
	if err != nil {
		return nil, 0, err
	}
	topo, err := network.ByName(sc.Machine.Topology, sc.Machine.N)
	if err != nil {
		return nil, 0, err
	}
	if topo != nil {
		m.NetDelay = network.HopDelay(topo, sc.Machine.Latency)
		m.NetLookahead = network.HopLookahead(topo, sc.Machine.Latency)
	}
	m.Parallelism = workers
	layout := isa.DefaultGUPSLayout()
	layout.Updates = sc.Workload.Updates
	prog, err := isa.GUPSProgram(layout)
	if err != nil {
		return nil, 0, err
	}
	if err := m.LoadAll(prog); err != nil {
		return nil, 0, err
	}
	entry, err := prog.Entry("main")
	if err != nil {
		return nil, 0, err
	}
	sm := rng.SplitMix64{State: cfg.Seed ^ 0x6d616368696e65} // the machine backend's thread-seed stream
	for _, n := range m.Nodes {
		for t := 0; t < sc.Workload.Parallelism; t++ {
			n.StartThread(entry, sm.Next(), 0)
		}
	}
	return m, time.Since(t0), nil
}

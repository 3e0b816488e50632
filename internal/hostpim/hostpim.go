// Package hostpim implements the paper's first study (§3): the queuing
// model of a heavyweight host processor (HWP) augmented with an array of N
// lightweight PIM processors (LWP) bonded to memory banks.
//
// The workload of W operations is split by temporal locality (Fig. 4):
// the high-locality fraction (1−%WL) runs on the HWP with a statistical
// cache, then the low-locality fraction %WL runs as N uniform concurrent
// threads, one per LWP. At any instant either the HWP or the LWP array is
// executing, never both — exactly the paper's execution flow.
//
// Two evaluation paths exist: Simulate (the discrete-event queuing model,
// the counterpart of the paper's SES/Workbench runs behind Figs. 5 and 6)
// and the closed forms in internal/analytic (the paper's §3.1.2 model
// behind Fig. 7). The ACC experiment compares them.
package hostpim

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ControlPolicy selects how the control run — the HWP executing *all* the
// work by itself — treats the low-locality fraction's cache behaviour.
type ControlPolicy int

const (
	// ControlFixedMiss gives the whole control workload the Table 1 miss
	// rate Pmiss. This is the normalization the paper's analytical model
	// (§3.1.2) uses: time relative to "the HWP alone performing only high
	// temporal locality work".
	ControlFixedMiss ControlPolicy = iota
	// ControlLocalityAware degrades the miss rate to PmissLow (default 1.0)
	// on the low-locality fraction: data with no reuse cannot hit a cache.
	// This is the control run behind the paper's Fig. 5 gains ("100X" in
	// the extreme requires it; see DESIGN.md §2).
	ControlLocalityAware
)

func (c ControlPolicy) String() string {
	switch c {
	case ControlFixedMiss:
		return "fixed-miss"
	case ControlLocalityAware:
		return "locality-aware"
	default:
		return fmt.Sprintf("ControlPolicy(%d)", int(c))
	}
}

// Params are the Table 1 parametric assumptions plus the two independent
// sweep variables (%WL and N). All times are in HWP cycles, following the
// paper's normalization ("the units of cycles refers to HWP cycles").
type Params struct {
	// W is the total work in operations (Table 1: 100,000,000).
	W float64
	// PctWL is the fraction of work with low temporal locality, assigned
	// to the LWP array in the test system (%WL, swept 0…1).
	PctWL float64
	// N is the number of LWP (PIM) nodes.
	N int
	// TLCycle is the LWP cycle time in HWP cycles (Table 1: 5ns / 1ns = 5).
	TLCycle float64
	// TMH is the HWP main-memory access time on a cache miss (90).
	TMH float64
	// TCH is the HWP cache access time (2).
	TCH float64
	// TML is the LWP local memory access time (30).
	TML float64
	// Pmiss is the HWP cache miss rate on high-locality work (0.1).
	Pmiss float64
	// PmissLow is the HWP miss rate on low-locality work under the
	// locality-aware control policy (no reuse ⇒ 1.0).
	PmissLow float64
	// MixLS is the load/store fraction of the instruction mix (0.30).
	MixLS float64
	// Control selects the control-run cache policy.
	Control ControlPolicy
	// Overlap enables the extension mode in which the HWP and the LWP
	// array execute their fractions concurrently instead of the paper's
	// strictly alternating Fig. 4 flow ("at any one time, either the HWP
	// or LWP array is executing but not both"). Total time becomes the
	// max of the two phases rather than their sum.
	Overlap bool
}

// DefaultParams returns Table 1 exactly, with PctWL and N left for the
// caller (zero values: 0% LWP work, 1 node).
func DefaultParams() Params {
	return Params{
		W:        100e6,
		PctWL:    0,
		N:        1,
		TLCycle:  5,
		TMH:      90,
		TCH:      2,
		TML:      30,
		Pmiss:    0.1,
		PmissLow: 1.0,
		MixLS:    0.30,
		Control:  ControlLocalityAware,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.W <= 0:
		return fmt.Errorf("hostpim: W = %g", p.W)
	case p.PctWL < 0 || p.PctWL > 1:
		return fmt.Errorf("hostpim: PctWL = %g", p.PctWL)
	case p.N <= 0:
		return fmt.Errorf("hostpim: N = %d", p.N)
	case p.TLCycle <= 0 || p.TMH <= 0 || p.TCH <= 0 || p.TML <= 0:
		return fmt.Errorf("hostpim: non-positive timing parameter")
	case p.Pmiss < 0 || p.Pmiss > 1 || p.PmissLow < 0 || p.PmissLow > 1:
		return fmt.Errorf("hostpim: miss rate out of [0,1]")
	case p.MixLS < 0 || p.MixLS > 1:
		return fmt.Errorf("hostpim: MixLS = %g", p.MixLS)
	}
	return nil
}

// HWPOpCycles returns the expected HWP cycles per operation at the given
// miss rate: 1 issue cycle, plus for the load/store fraction the cache
// access (TCH−1 extra) and the miss penalty.
func (p Params) HWPOpCycles(pmiss float64) float64 {
	return 1 + p.MixLS*(p.TCH-1+pmiss*p.TMH)
}

// LWPOpCycles returns the expected LWP cycles-per-operation in HWP cycles:
// TLCycle per issue, with the load/store fraction costing TML instead.
func (p Params) LWPOpCycles() float64 {
	return p.TLCycle + p.MixLS*(p.TML-p.TLCycle)
}

// NB returns the paper's third orthogonal parameter — the LWP/HWP per-op
// cost ratio. For N > NB, PIM support always wins regardless of %WL.
func (p Params) NB() float64 {
	return p.LWPOpCycles() / p.HWPOpCycles(p.Pmiss)
}

// Result reports one run of the model.
type Result struct {
	// TimeHWPPhase and TimeLWPPhase are the cycle counts of the two phases
	// of the test system (Fig. 4's timeline); Total is their sum.
	TimeHWPPhase float64
	TimeLWPPhase float64
	Total        float64
	// ControlTime is the control run (HWP does everything).
	ControlTime float64
	// Gain is ControlTime / Total (Fig. 5's dependent variable).
	Gain float64
	// Relative is Total normalized by the fixed-miss HWP-only time
	// (Fig. 7's dependent variable).
	Relative float64
	// NodeTimes, when produced by the simulator, holds each LWP thread's
	// completion time of its share of the low-locality work.
	NodeTimes []float64
	// HWPUtil and LWPUtil are simulator-measured busy fractions over the
	// test run.
	HWPUtil float64
	LWPUtil float64
}

// Analytic evaluates the model in closed form (the §3.1.2 equations).
func Analytic(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	tH := p.HWPOpCycles(p.Pmiss)
	tL := p.LWPOpCycles()
	wh := (1 - p.PctWL) * p.W
	wl := p.PctWL * p.W
	r := Result{
		TimeHWPPhase: wh * tH,
		TimeLWPPhase: wl * tL / float64(p.N),
	}
	if p.Overlap {
		r.Total = math.Max(r.TimeHWPPhase, r.TimeLWPPhase)
	} else {
		r.Total = r.TimeHWPPhase + r.TimeLWPPhase
	}
	r.ControlTime = p.controlTime()
	r.Gain = r.ControlTime / r.Total
	r.Relative = r.Total / (p.W * tH)
	return r, nil
}

// controlTime returns the control run's cycle count under the selected
// policy.
func (p Params) controlTime() float64 {
	switch p.Control {
	case ControlFixedMiss:
		return p.W * p.HWPOpCycles(p.Pmiss)
	case ControlLocalityAware:
		wh := (1 - p.PctWL) * p.W
		wl := p.PctWL * p.W
		return wh*p.HWPOpCycles(p.Pmiss) + wl*p.HWPOpCycles(p.PmissLow)
	default:
		panic(fmt.Sprintf("hostpim: unknown control policy %v", p.Control))
	}
}

// TimeRelative is the paper's closed form: 1 − %WL·(1 − NB/N). Exposed
// separately so tests can verify Analytic against the exact published
// equation.
func TimeRelative(p Params) float64 {
	return 1 - p.PctWL*(1-p.NB()/float64(p.N))
}

// SimOptions tunes the discrete-event simulation.
type SimOptions struct {
	// Seed drives all stochastic draws.
	Seed uint64
	// ChunkOps batches operations per simulation event; the op *counts*
	// inside a chunk are sampled exactly (binomial), so batching changes
	// only event granularity, not the statistics. 0 means a default chosen
	// for ~10k events per run.
	ChunkOps int
	// Tracer, when non-nil, observes the test system's process timeline —
	// attach a trace.Recorder to regenerate the paper's Fig. 4 thread
	// timeline. Tracing requires a serial run (RunParallel <= 1).
	Tracer sim.Tracer
	// RunParallel runs the test system partitioned over min(RunParallel,
	// N) shard kernels driven by that many workers (sim.ParKernel): the
	// LWP nodes are sharded contiguously and never communicate, so the
	// partitions declare an infinite lookahead and the whole run is one
	// window. 0 or 1 keeps the serial single-kernel path. The Result is
	// identical — every field, bit for bit — for every value, which the
	// invariance test pins: the nodes' streams, resources, and event
	// timelines are per-node and therefore shard-independent.
	RunParallel int
}

// Simulate runs the queuing model on the DES kernel: the HWP station of
// Fig. 2 followed by the N-node LWP array of Fig. 3, with the control run
// executed in the same stochastic style. Returns the measured Result.
//
// The model executes in the kernel's activity mode: every work loop is a
// run-to-completion state machine stepped inline by the dispatch loop, so
// the N-way interleaved LWP phase costs an event-queue pop per switch
// instead of a goroutine handoff. The event trajectory (and therefore every statistic)
// is identical to the original Proc-based formulation.
func Simulate(p Params, opt SimOptions) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	chunk := opt.ChunkOps
	if chunk <= 0 {
		chunk = int(math.Max(1, p.W/10000))
	}
	var res Result
	var err error
	if opt.RunParallel >= 2 && p.N >= 2 {
		if opt.Tracer != nil {
			return Result{}, fmt.Errorf("hostpim: Tracer requires a serial run (RunParallel <= 1)")
		}
		res, err = simulateTestPar(p, opt, chunk)
	} else {
		res, err = simulateTestSerial(p, opt, chunk)
	}
	if err != nil {
		return Result{}, err
	}
	if err := simulateControl(p, opt, chunk, &res); err != nil {
		return Result{}, err
	}
	if res.Total > 0 {
		res.Gain = res.ControlTime / res.Total
	}
	res.Relative = res.Total / (p.W * p.HWPOpCycles(p.Pmiss))
	return res, nil
}

// simulateTestSerial runs the test system on one kernel: the original
// orchestrated Fig. 4 flow.
func simulateTestSerial(p Params, opt SimOptions, chunk int) (Result, error) {
	// --- Test system: HWP phase then LWP array phase (or concurrent in
	// Overlap mode). ---
	k := sim.NewKernel()
	k.Tracer = opt.Tracer
	hwpStream := rng.NewWithStream(opt.Seed, 1)
	res := Result{}

	hwpCPU := sim.NewResource(k, "hwp-cpu", 1, sim.FIFO)
	hwpMem := sim.NewResource(k, "hwp-mem", 1, sim.FIFO)
	lwpCPU := make([]*sim.Resource, p.N)
	lwpMem := make([]*sim.Resource, p.N)
	// One reseedable value slab for the per-node streams instead of one
	// heap allocation per node per run.
	lwpStreams := make([]rng.Stream, p.N)
	lwpNames := make([]string, p.N)
	for i := range lwpCPU {
		num := strconv.Itoa(i)
		lwpNames[i] = "lwp-" + num
		lwpCPU[i] = sim.NewResource(k, "lwp-cpu-"+num, 1, sim.FIFO)
		lwpMem[i] = sim.NewResource(k, "lwp-mem-"+num, 1, sim.FIFO)
		lwpStreams[i].Reseed(opt.Seed, 100+uint64(i))
	}

	wh := (1 - p.PctWL) * p.W
	res.NodeTimes = make([]float64, p.N)

	ts := &testSystem{
		k: k, p: p, res: &res, chunk: chunk,
		lwpCPU: lwpCPU, lwpMem: lwpMem, lwpStreams: lwpStreams, lwpNames: lwpNames,
		nodes: make([]lwpNode, p.N),
	}
	ts.hwp.init(p, hwpStream, p.Pmiss, wh, chunk, hwpCPU, hwpMem)
	k.SpawnActivity("test-system", ts)
	if _, err := k.RunUntilIdle(); err != nil {
		return Result{}, err
	}
	res.Total = k.Now()
	res.HWPUtil = hwpCPU.Util.Area(res.Total) + hwpMem.Util.Area(res.Total)
	if res.Total > 0 {
		res.HWPUtil /= res.Total
	}
	var lwpBusy float64
	for i := range lwpCPU {
		lwpBusy += lwpCPU[i].Util.Area(res.Total) + lwpMem[i].Util.Area(res.Total)
	}
	if res.Total > 0 && p.N > 0 {
		res.LWPUtil = lwpBusy / (res.Total * float64(p.N))
	}
	return res, nil
}

// simulateControl runs the control system — the HWP alone — and fills
// res.ControlTime. The control is a single station and always serial.
func simulateControl(p Params, opt SimOptions, chunk int, res *Result) error {
	wh := (1 - p.PctWL) * p.W
	wl := p.PctWL * p.W
	kc := sim.NewKernel()
	ctrlStream := rng.NewWithStream(opt.Seed, 2)
	cCPU := sim.NewResource(kc, "hwp-cpu", 1, sim.FIFO)
	cMem := sim.NewResource(kc, "hwp-mem", 1, sim.FIFO)
	cs := &controlSystem{}
	switch p.Control {
	case ControlFixedMiss:
		cs.seg[0].init(p, ctrlStream, p.Pmiss, p.W, chunk, cCPU, cMem)
		cs.segs = 1
	case ControlLocalityAware:
		cs.seg[0].init(p, ctrlStream, p.Pmiss, wh, chunk, cCPU, cMem)
		cs.seg[1].init(p, ctrlStream, p.PmissLow, wl, chunk, cCPU, cMem)
		cs.segs = 2
	}
	kc.SpawnActivity("control-system", cs)
	if _, err := kc.RunUntilIdle(); err != nil {
		return err
	}
	res.ControlTime = kc.Now()
	return nil
}

// stationWork drives a batch of operations through one two-resource
// station (CPU then memory) as a run-to-completion state machine — the
// activity-mode form of the old blocking work loop. Operations are
// processed in chunks whose internal composition is sampled exactly, so
// batching changes only event granularity, not the statistics. The same
// machine serves the HWP station of Fig. 2 (hwp true: issue + cache-hit
// cycles on the CPU, miss cycles on memory) and an LWP node of Fig. 3
// (hwp false: TLCycle per issue on the node CPU, TML per load/store on
// its bank).
type stationWork struct {
	p         Params
	st        *rng.Stream
	pmiss     float64 // HWP miss rate (hwp mode only)
	hwp       bool
	remaining int64
	chunk     int64
	cpu, mem  *sim.Resource

	state     int
	cpuCycles float64
	memCycles float64
}

// stationWork states: which step of the current chunk runs next.
const (
	swNextChunk = iota // draw the next chunk, acquire the CPU
	swHoldCPU          // CPU granted: spend the compute cycles
	swCPUDone          // compute done: release, acquire memory if needed
	swHoldMem          // memory granted: spend the access cycles
	swMemDone          // access done: release, next chunk
)

// init prepares the machine for ops operations at the given miss rate
// (ignored for LWP stations, where initLWP applies).
func (w *stationWork) init(p Params, st *rng.Stream, pmiss, ops float64, chunk int, cpu, mem *sim.Resource) {
	*w = stationWork{p: p, st: st, pmiss: pmiss, hwp: true,
		remaining: int64(math.Round(ops)), chunk: int64(chunk), cpu: cpu, mem: mem}
}

// initLWP prepares the machine as an LWP node.
func (w *stationWork) initLWP(p Params, st *rng.Stream, ops float64, chunk int, cpu, mem *sim.Resource) {
	*w = stationWork{p: p, st: st,
		remaining: int64(math.Round(ops)), chunk: int64(chunk), cpu: cpu, mem: mem}
}

// run advances the machine until it must wait (returns false; call again
// on the next resumption) or all operations are done (returns true).
func (w *stationWork) run(a *sim.ActCtx) bool {
	for {
		switch w.state {
		case swNextChunk:
			if w.remaining <= 0 {
				return true
			}
			n := w.chunk
			if n > w.remaining {
				n = w.remaining
			}
			w.remaining -= n
			nLS := w.st.Binomial(int(n), w.p.MixLS)
			if w.hwp {
				nMiss := w.st.Binomial(nLS, w.pmiss)
				// Issue + cache-hit portion on the CPU; memory portion on
				// the memory device, mirroring the two service centres of
				// Fig. 2.
				w.cpuCycles = float64(n) + float64(nLS)*(w.p.TCH-1)
				w.memCycles = float64(nMiss) * w.p.TMH
			} else {
				w.cpuCycles = float64(n-int64(nLS)) * w.p.TLCycle
				w.memCycles = float64(nLS) * w.p.TML
			}
			w.state = swHoldCPU
			if !w.cpu.Acquire1Act(a) {
				return false
			}
		case swHoldCPU:
			w.state = swCPUDone
			a.Wait(w.cpuCycles)
			return false
		case swCPUDone:
			w.cpu.Release(1)
			if w.memCycles > 0 {
				w.state = swHoldMem
				if !w.mem.Acquire1Act(a) {
					return false
				}
			} else {
				w.state = swNextChunk
			}
		case swHoldMem:
			w.state = swMemDone
			a.Wait(w.memCycles)
			return false
		case swMemDone:
			w.mem.Release(1)
			w.state = swNextChunk
		}
	}
}

// testSystem orchestrates the Fig. 4 execution flow as an activity: the
// HWP phase, then (or concurrently with, in Overlap mode) the N uniform
// LWP threads, then the join.
type testSystem struct {
	k     *sim.Kernel
	p     Params
	res   *Result
	chunk int

	hwp        stationWork
	lwpCPU     []*sim.Resource
	lwpMem     []*sim.Resource
	lwpStreams []rng.Stream
	lwpNames   []string
	nodes      []lwpNode

	phase    int // 0: HWP work; 1: joined
	started  bool
	wg       *sim.WaitGroup
	lwpStart sim.Time
}

// lwpNode is one LWP thread of the array: its station machine plus the
// bookkeeping done at completion.
type lwpNode struct {
	w     stationWork
	ts    *testSystem
	idx   int
	start sim.Time
}

// Step advances one LWP thread; at completion it records the node time
// and joins.
func (n *lwpNode) Step(a *sim.ActCtx) {
	if !n.w.run(a) {
		return
	}
	n.ts.res.NodeTimes[n.idx] = a.Now() - n.start
	n.ts.wg.Done()
	a.Exit()
}

// startLWPArray launches the N uniform concurrent LWP threads (Fig. 4) at
// the current time.
func (ts *testSystem) startLWPArray(now sim.Time) {
	ts.wg = sim.NewWaitGroup(ts.k, "lwp-join", ts.p.N)
	ts.lwpStart = now
	perNode := ts.p.PctWL * ts.p.W / float64(ts.p.N)
	for i := 0; i < ts.p.N; i++ {
		n := &ts.nodes[i]
		n.ts, n.idx, n.start = ts, i, now
		n.w.initLWP(ts.p, &ts.lwpStreams[i], perNode, ts.chunk, ts.lwpCPU[i], ts.lwpMem[i])
		ts.k.SpawnActivity(ts.lwpNames[i], n)
	}
}

// Step drives the test system's phases.
func (ts *testSystem) Step(a *sim.ActCtx) {
	if ts.p.Overlap && !ts.started {
		// Extension mode: HWP and LWP array execute concurrently.
		ts.started = true
		ts.startLWPArray(a.Now())
	}
	switch ts.phase {
	case 0:
		if !ts.hwp.run(a) {
			return
		}
		ts.res.TimeHWPPhase = a.Now()
		ts.phase = 1
		if !ts.p.Overlap {
			// Phase 2: the LWP array executes the low-locality work.
			ts.startLWPArray(a.Now())
		}
		if !ts.wg.WaitAct(a) {
			return
		}
		fallthrough
	case 1:
		if ts.p.Overlap {
			ts.res.TimeLWPPhase = 0
			for _, nt := range ts.res.NodeTimes {
				if nt > ts.res.TimeLWPPhase {
					ts.res.TimeLWPPhase = nt
				}
			}
		} else {
			ts.res.TimeLWPPhase = a.Now() - ts.lwpStart
		}
		a.Exit()
	}
}

// controlSystem runs the control workload — the HWP alone — as one or two
// sequential station segments (two under the locality-aware policy).
type controlSystem struct {
	seg  [2]stationWork
	segs int
	cur  int
}

// Step drives the control segments in order.
func (cs *controlSystem) Step(a *sim.ActCtx) {
	for cs.cur < cs.segs {
		if !cs.seg[cs.cur].run(a) {
			return
		}
		cs.cur++
	}
	a.Exit()
}

// GainCurve sweeps %WL for a fixed node count using the analytic path,
// returning (pcts, gains) — one Fig. 5 series.
func GainCurve(base Params, n int, pcts []float64) ([]float64, error) {
	gains := make([]float64, len(pcts))
	for i, pct := range pcts {
		p := base
		p.N = n
		p.PctWL = pct
		r, err := Analytic(p)
		if err != nil {
			return nil, err
		}
		gains[i] = r.Gain
	}
	return gains, nil
}

// ResponseCurve sweeps node counts for a fixed %WL, returning total times
// — one Fig. 6 series.
func ResponseCurve(base Params, pct float64, nodes []int) ([]float64, error) {
	times := make([]float64, len(nodes))
	for i, n := range nodes {
		p := base
		p.N = n
		p.PctWL = pct
		r, err := Analytic(p)
		if err != nil {
			return nil, err
		}
		times[i] = r.Total
	}
	return times, nil
}

// CrossoverN returns the node count above which the PIM-augmented system
// beats the fixed-miss control for every %WL — the paper's N = NB
// coincidence point (Fig. 7).
func CrossoverN(p Params) float64 { return p.NB() }

// AgreementBand runs both evaluation paths over a (pct × nodes) grid and
// returns the min, mean, and max relative error between simulation and
// analytic totals — the reproduction of the paper's "5% to 18%" agreement
// claim (§3.1.2).
func AgreementBand(base Params, pcts []float64, nodes []int, simW float64, seed uint64) (min, mean, max float64, err error) {
	var agg stats.Sample
	min = math.Inf(1)
	for _, pct := range pcts {
		for _, n := range nodes {
			p := base
			p.PctWL = pct
			p.N = n
			if simW > 0 {
				p.W = simW
			}
			an, aerr := Analytic(p)
			if aerr != nil {
				return 0, 0, 0, aerr
			}
			sr, serr := Simulate(p, SimOptions{Seed: seed})
			if serr != nil {
				return 0, 0, 0, serr
			}
			e := stats.RelErr(sr.Total, an.Total)
			agg.Add(e)
			if e < min {
				min = e
			}
			if e > max {
				max = e
			}
		}
	}
	return min, agg.Mean(), max, nil
}

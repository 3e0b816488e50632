// Package benches holds the substrate micro-benchmark drivers shared by
// the in-repo benchmarks (internal/sim, the root bench_test.go) and the
// pimbench trajectory harness. The BENCH_<n>.json snapshot names promise
// a stable workload per name; keeping one driver per workload here means
// a tuning change cannot silently fork the measured code between `go
// test -bench` and the CI perf gate.
package benches

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/hostpim"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/parcelsys"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// KernelSchedule measures the callback-event path: schedule a batch of
// events, drain them. With the free list, steady-state scheduling reuses
// recycled event structs instead of heap-allocating one per Schedule, and
// the value Timer handle lives on the caller's stack.
func KernelSchedule(b *testing.B) {
	k := sim.NewKernel()
	var sink int
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 256
	for done := 0; done < b.N; done += batch {
		for j := 0; j < batch; j++ {
			k.Schedule(sim.Time(j), fn)
		}
		if _, err := k.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
}

// KernelWaitResume measures the kernel's hottest path — a process
// advancing time with Wait. Under direct handoff the process's own
// resumption is dispatched by the parking goroutine itself, so a burst of
// Waits costs one controller round trip per Advance window, not two
// channel operations per event. The ns/op is per completed Wait.
func KernelWaitResume(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("waiter", func(c *sim.Context) {
		for {
			c.Wait(1)
		}
	})
	b.Cleanup(func() { _ = k.Run(k.Now()) })
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	for done := 0; done < b.N; done += batch {
		if err := k.Advance(sim.Time(done + batch)); err != nil {
			b.Fatal(err)
		}
	}
}

// KernelHandoffChain measures a proc→proc resumption chain: two processes
// alternate at the same timestamps, so every dispatch hands the logical
// thread directly from one process goroutine to the other (one channel
// operation per switch instead of a round trip through a central event
// loop).
func KernelHandoffChain(b *testing.B) {
	k := sim.NewKernel()
	for i := 0; i < 2; i++ {
		k.Spawn("p", func(c *sim.Context) {
			for {
				c.Wait(1)
			}
		})
	}
	b.Cleanup(func() { _ = k.Run(k.Now()) })
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 512
	for done := 0; done < b.N; done += batch {
		// Each window completes batch Waits per process; 2 procs → count
		// iterations in proc-waits.
		if err := k.Advance(sim.Time((done + batch) / 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// waitLoop is the activity counterpart of the KernelHandoffChain /
// KernelWaitResume workers: an endless 1-cycle wait loop.
type waitLoop struct{}

func (waitLoop) Step(a *sim.ActCtx) { a.Wait(1) }

// KernelActivityChain is KernelHandoffChain in activity mode: two
// activities alternate at the same timestamps, so every switch is a heap
// pop plus an inline Step — no goroutines, no channel operations. The
// ns/op gap to KernelHandoffChain is the cost the activity execution mode
// removes from every proc→proc switch.
func KernelActivityChain(b *testing.B) {
	k := sim.NewKernel()
	var w waitLoop
	k.SpawnActivity("a0", w)
	k.SpawnActivity("a1", w)
	b.Cleanup(func() { _ = k.Run(k.Now()) })
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 512
	for done := 0; done < b.N; done += batch {
		// Each window completes batch Waits per activity; 2 activities →
		// count iterations in activity-waits.
		if err := k.Advance(sim.Time((done + batch) / 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// holdDepth is the standing queue of the hold micro-benchmarks: the size
// of parcel-scale-1k's event queue (about 7.2k events), rounded up.
const holdDepth = 8192

// kernelHold is the classic hold model at a realistic queue depth:
// holdDepth standing events, and every fired event schedules one
// successor after a delay drawn from next — one pop and one push per
// event, with the queue's depth held constant. The kernel micro-benchmarks
// above keep at most a few hundred events queued, so none of them shows
// what a deep queue costs per event. ns/op is per fired event.
func kernelHold(b *testing.B, next func(*rng.Stream) sim.Time) {
	k := sim.NewKernel()
	st := rng.New(1)
	fired := 0
	var fire func(any)
	fire = func(any) {
		fired++
		if fired == b.N {
			k.Stop()
		}
		k.ScheduleArg(next(st), fire, nil)
	}
	for i := 0; i < holdDepth; i++ {
		k.ScheduleArg(next(st), fire, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := k.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// KernelHold is the hold model with integer delays uniform on [0, 1024),
// the shape of the parcel models' schedules: whole-cycle times, so events
// reach the queue in (t, seq) order within each time unit.
func KernelHold(b *testing.B) {
	kernelHold(b, func(st *rng.Stream) sim.Time { return sim.Time(st.Intn(1024)) })
}

// KernelHoldFloat is the hold model with exponential delays of mean 512:
// fractional times that often arrive out of order within a time unit,
// the queue's overflow path.
func KernelHoldFloat(b *testing.B) {
	kernelHold(b, func(st *rng.Stream) sim.Time { return st.Exp(512) })
}

// MM1Simulation measures throughput of the queueing toolkit on a standard
// M/M/1 at rho=0.7, using the activity-mode stations (jobs are values
// flowing through inline handlers; the Proc-based stations remain for
// interactive models and are covered by the queueing package's own
// benchmarks).
func MM1Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		arr := rng.NewWithStream(uint64(i), 1)
		svc := rng.NewWithStream(uint64(i), 2)
		sink := queueing.NewSink("out")
		srv := queueing.NewActServer(k, "srv", 1,
			func(*queueing.Job) float64 { return svc.Exp(1) }, sink)
		src := queueing.NewActSource(k, "in", func() float64 { return arr.Exp(1 / 0.7) }, srv)
		sink.Recycle = src.Dispose
		src.Start()
		if err := k.Run(5000); err != nil {
			b.Fatal(err)
		}
	}
}

// HostPIMSimulate measures one full study-1 simulation point.
func HostPIMSimulate(b *testing.B) {
	p := hostpim.DefaultParams()
	p.PctWL = 0.5
	p.N = 16
	p.W = 1e6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hostpim.Simulate(p, hostpim.SimOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ParcelSysRun measures one full study-2 paired run.
func ParcelSysRun(b *testing.B) {
	p := parcelsys.DefaultParams()
	p.Horizon = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		if _, err := parcelsys.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// simParcel1K drives the big-run workload behind both sim-kernel
// parallelism benchmarks: the parcel-scale-1k scenario shape (1024 nodes
// x 8 parcels over a 500-cycle interconnect) on the partitioned parcelsys
// formulation, executed with the given worker count. One driver for both
// names keeps the serial baseline and the parallel run measuring the
// identical workload — the partitioned kernel's results are identical for
// every worker count >= 1, so the ns/op ratio is the single-run speedup
// and nothing else.
func simParcel1K(b *testing.B, workers int) {
	p := parcelsys.DefaultParams()
	p.Nodes = 1024
	p.Parallelism = 8
	p.RemoteFrac = 0.4
	p.Latency = 500
	p.Horizon = 20000
	p.RunParallel = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		if _, err := parcelsys.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// SimParcel1K is the serial baseline of the sim-kernel pair: the
// parcel-scale-1k workload on one shard (the plain serial kernel runs the
// whole model).
func SimParcel1K(b *testing.B) { simParcel1K(b, 1) }

// SimParcelPar is the parallel side of the sim-kernel pair: the identical
// workload partitioned across GOMAXPROCS shards (floored at 2, so the
// windowed kernel is exercised even on one core) with the 500-cycle
// one-way latency as the conservative lookahead. On a single-core host
// expect parity modulo the window machinery's overhead (~10%); with real
// cores the shards run concurrently and the ratio is the speedup.
func SimParcelPar(b *testing.B) {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	simParcel1K(b, w)
}

// MachineGUPS measures the execution-driven backend's substrate: the ISA
// interpreter running the GUPS random-update kernel on an 8-node machine
// with 4 threads per node. One Machine is Reset and re-driven per
// iteration, so the ns/op tracks the stepping loop's cost and allocs/op
// pins its slab discipline (steady state: 0).
func MachineGUPS(b *testing.B) {
	layout := isa.DefaultGUPSLayout()
	layout.Updates = 256
	prog, err := isa.GUPSProgram(layout)
	if err != nil {
		b.Fatal(err)
	}
	const nodes, threads = 8, 4
	m, err := isa.NewMachine(nodes, 16384, isa.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	entry, err := prog.Entry("main")
	if err != nil {
		b.Fatal(err)
	}
	sm := rng.SplitMix64{State: 2004}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			for t := 0; t < threads; t++ {
				m.Nodes[i].StartThread(entry, sm.Next(), 0)
			}
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the slabs outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// machineGUPS256 drives the big-run workload behind both single-run
// parallelism benchmarks: GUPS on 256 nodes x 4 threads over a 16x16
// torus (the machine-gups-256 scenario preset's shape), executed on the
// given PDES worker count. One driver for both names keeps the serial
// baseline and the parallel run measuring the identical workload, so
// their ratio is the single-run speedup and nothing else.
func machineGUPS256(b *testing.B, parallelism int) {
	layout := isa.DefaultGUPSLayout()
	layout.Updates = 128
	prog, err := isa.GUPSProgram(layout)
	if err != nil {
		b.Fatal(err)
	}
	const nodes, threads, perHop = 256, 4, 20.0
	m, err := isa.NewMachine(nodes, 16384, isa.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	topo, err := network.ByName("torus", nodes)
	if err != nil {
		b.Fatal(err)
	}
	m.NetDelay = network.HopDelay(topo, perHop)
	m.NetLookahead = network.HopLookahead(topo, perHop)
	m.Parallelism = parallelism
	entry, err := prog.Entry("main")
	if err != nil {
		b.Fatal(err)
	}
	sm := rng.SplitMix64{State: 2004}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			for t := 0; t < threads; t++ {
				m.Nodes[i].StartThread(entry, sm.Next(), 0)
			}
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the slabs (and worker plumbing) outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// MachineGUPS256 is the serial baseline of the big-run pair: the
// machine-gups-256 workload on one worker.
func MachineGUPS256(b *testing.B) { machineGUPS256(b, 1) }

// MachineGUPSPar is the parallel side of the big-run pair: the identical
// workload on GOMAXPROCS PDES workers. Its ns/op against MachineGUPS256's
// is the single-run speedup; on a multi-core host with P >= 4 the
// conservative windows are wide enough (one torus hop = 20 cycles) that
// the partitions dominate the barrier cost.
func MachineGUPSPar(b *testing.B) { machineGUPS256(b, runtime.GOMAXPROCS(0)) }

// machineDRAM drives the DRAM pair: the machine-dram preset widened to
// 64 nodes and 8192 triad words (the perfbench bigrun shape), every wide
// access priced by its node's open-page row buffer through the MemDelay
// hook, on the given PDES worker count. Each iteration is one full
// scenario run — fresh banks, staging, and the result check — so the
// ns/op is what a DRAM design point costs end to end.
func machineDRAM(b *testing.B, parallelism int) {
	s := scenario.MustFind("machine-dram")
	s.Machine.N = 64
	s.Workload.Updates = 8192
	s.Machine.RunParallel = parallelism
	cfg := scenario.Config{Seed: 2004}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(s, "machine", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// MachineDRAM is the serial side of the DRAM pair.
func MachineDRAM(b *testing.B) { machineDRAM(b, 1) }

// MachineDRAMPar is the parallel side of the DRAM pair: the identical
// point on GOMAXPROCS PDES workers (row-buffer state is per node, so
// the hook runs inside the partitions).
func MachineDRAMPar(b *testing.B) { machineDRAM(b, runtime.GOMAXPROCS(0)) }

// MachineDecode measures the pre-decoded dispatch layer in isolation: a
// register-only countdown kernel on one node and one thread, so no
// memory stalls break the issue stream and the superinstruction fuser
// sees its single-ready-thread precondition every cycle. The ns/op is
// (nearly) pure decode-and-issue cost; allocs/op pins the decoded slab's
// reuse across Reset/Load (steady state: 0).
func MachineDecode(b *testing.B) {
	prog, err := isa.Assemble(`
main:
    addi r1, r0, 4096
    lui  r2, 1
loop:
    xor r3, r1, r2
    add r4, r3, r1
    shr r5, r4, r2
    and r6, r5, r3
    or  r7, r6, r1
    sub r2, r7, r6
    addi r1, r1, -1
    bne r1, r0, loop
    halt
`)
	if err != nil {
		b.Fatal(err)
	}
	m, err := isa.NewMachine(1, 2048, isa.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	entry, err := prog.Entry("main")
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		m.Nodes[0].StartThread(entry, 0, 0)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the slabs outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// MachineFaultTreeSum measures the resilient delivery path: the treesum
// parcel fan-in on 16 nodes with the mixed fault plan armed (12% drop, 6%
// corrupt, 10% dup, 8-cycle jitter) and the seq/ack retransmit protocol
// on. Every spawn pays the injector's hash draws plus the analytic
// retransmit planning, so the delta against a fault-free treesum prices
// the whole fault layer; allocs/op pins that planning stays allocation-
// free (steady state: 0).
func MachineFaultTreeSum(b *testing.B) {
	const nodes = 16
	layout := isa.DefaultTreeSumLayout()
	prog, err := isa.TreeSumProgram(nodes, layout)
	if err != nil {
		b.Fatal(err)
	}
	m, err := isa.NewMachine(nodes, 16384, isa.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fault.New(fault.Config{
		Seed: 0x9142, DropRate: 0.12, CorruptRate: 0.06, DupRate: 0.10, JitterMax: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Fault = plan
	m.Reliable = true
	entry, err := prog.Entry("main")
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		for i, n := range m.Nodes {
			for k := 0; k < layout.DataWords; k++ {
				n.Mem[layout.DataBase+uint64(k)] = uint64(i*layout.DataWords + k)
			}
		}
		m.Nodes[0].StartThread(entry, 0, 0)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the slabs outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// ServeSpecDecode measures the daemon's per-request admission CPU in
// isolation: strict JSON decode, preset resolution with field overrides,
// resource-limit checks, and the canonical run key. This is work pimserve
// does for every request before any queueing, so its cost bounds the
// spec-validation throughput of one core.
func ServeSpecDecode(b *testing.B) {
	body := []byte(`{"preset":"machine-gups","backend":"machine",` +
		`"fields":{"nodes":16,"updates":64},"seed":7,"quick":true}`)
	lim := scenario.DefaultSpecLimits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := scenario.DecodeSpec(body)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sp.Resolve(lim)
		if err != nil {
			b.Fatal(err)
		}
		if r.Key() == "" {
			b.Fatal("empty key")
		}
	}
}

// ServeRoundTrip measures the hot serving path end to end over loopback
// HTTP: the same spec every iteration, so after the warm-up request every
// round trip is decode + resolve + single-flight lookup + result-cache
// hit + JSON response — the daemon's best case, and the floor under every
// served request's latency.
func ServeRoundTrip(b *testing.B) {
	s := serve.New(serve.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	body := `{"preset":"paper-baseline","quick":true}`
	post := func() {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // warm: run once so the timed loop measures cache hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

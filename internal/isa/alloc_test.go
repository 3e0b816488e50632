package isa

import "testing"

// Allocation guards for the machine's hot paths, in the PR 3/4 discipline:
// steady-state stepping, parcel sends, and thread spawn/halt churn must
// run out of the value slabs with zero per-cycle heap allocations.

// mustMachine builds a machine running src with one thread at "main".
func mustMachine(t *testing.T, src string, nodes int) *Machine {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(nodes, 2048, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	entry, err := p.Entry("main")
	if err != nil {
		t.Fatal(err)
	}
	m.Nodes[0].StartThread(entry, 0, 0)
	return m
}

// stepN advances the machine n cycles, failing on any execution fault.
func stepN(t *testing.T, m *Machine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStepSteadyStateZeroAllocs(t *testing.T) {
	// A compute/memory loop that never terminates: Step must not allocate.
	m := mustMachine(t, `
main:
    addi r2, r0, 900
loop:
    ld   r3, r2, 0
    addi r3, r3, 1
    st   r3, r2, 0
    jmp  loop
`, 1)
	stepN(t, m, 1000) // warm the slabs
	if avg := testing.AllocsPerRun(200, func() { stepN(t, m, 50) }); avg != 0 {
		t.Errorf("Step steady state allocates %g times per 50 cycles", avg)
	}
}

func TestSpawnHaltChurnZeroAllocs(t *testing.T) {
	// Every thread spawns a successor on the next node and halts: constant
	// spawn/parcel/thread churn. After warmup the thread slabs, free
	// lists, and the in-flight queue are all recycled — zero allocations.
	m := mustMachine(t, `
main:
    nodeid r3
    addi r4, r0, 1
    add  r3, r3, r4      ; next node
    addi r5, r0, nmask
    ld   r6, r5, 0
    and  r3, r3, r6      ; wrap
    addi r5, r0, main
    spawn r0, r3, r5
    halt
nmask: .word 3
`, 4)
	m.Timing.NetLatency = 5
	stepN(t, m, 2000) // warm every slab through several spawn generations
	if avg := testing.AllocsPerRun(200, func() { stepN(t, m, 50) }); avg != 0 {
		t.Errorf("spawn/halt churn allocates %g times per 50 cycles", avg)
	}
}

func TestManyThreadChurnZeroAllocs(t *testing.T) {
	// Parallel spawn fan-out per round: each generation starts several
	// threads per node through parcel delivery while earlier ones halt.
	m := mustMachine(t, `
main:
    nodeid r3
    addi r4, r0, 1
    add  r3, r3, r4
    addi r5, r0, nmask
    ld   r6, r5, 0
    and  r3, r3, r6
    addi r5, r0, work
    spawn r0, r3, r5
    spawn r0, r3, r5
    halt
work:
    addi r7, r0, 900
    ld   r8, r7, 0
    addi r9, r0, main
    nodeid r3
    spawn r0, r3, r9     ; local respawn keeps load constant
    halt
nmask: .word 1
`, 2)
	m.Timing.NetLatency = 3
	m.MaxCycles = 0
	stepN(t, m, 4000)
	if avg := testing.AllocsPerRun(100, func() { stepN(t, m, 100) }); avg != 0 {
		t.Errorf("thread churn allocates %g times per 100 cycles", avg)
	}
}

func TestBurstThenQuiesceCompactsSlab(t *testing.T) {
	// A one-off fan-out of many short-lived threads followed by a long
	// single-thread phase: the slab must compact so the tail phase does
	// not scan hundreds of dead contexts every cycle.
	p, err := Assemble(`
worker:
    halt
main:
    addi r1, r0, 400
loop:
    ld   r2, r1, 0
    jmp  loop
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(1, 2048, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	worker, _ := p.Entry("worker")
	main, _ := p.Entry("main")
	const burst = 500
	for i := 0; i < burst; i++ {
		m.Nodes[0].StartThread(worker, 0, 0)
	}
	m.Nodes[0].StartThread(main, 0, 0)
	stepN(t, m, burst+200) // burst drains, spinner keeps running
	if n := m.Nodes[0]; n.live != 1 {
		t.Fatalf("live = %d after burst drain", n.live)
	}
	if got := len(m.Nodes[0].threads); got >= 64 {
		t.Errorf("slab holds %d contexts after the burst drained; compaction did not run", got)
	}
}

func TestResetReusesSlabs(t *testing.T) {
	// After one full run, Reset + reload + rerun of the same workload must
	// not allocate: the machine is reusable across replications.
	layout := DefaultGUPSLayout()
	layout.Updates = 32
	prog, err := GUPSProgram(layout)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(2, 16384, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			t.Fatal(err)
		}
		entry, _ := prog.Entry("main")
		for i := range m.Nodes {
			m.Nodes[i].StartThread(entry, uint64(i), 0)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm
	first := m.Cycle()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("Reset+rerun allocates %g times per run", avg)
	}
	if m.Cycle() != first {
		t.Errorf("rerun cycle count drifted: %d vs %d", m.Cycle(), first)
	}
}

func TestMemDelayWindowedZeroAllocs(t *testing.T) {
	// A warmed windowed run priced by a non-allocating MemDelay hook (an
	// open-page row buffer per node) must not allocate: per-access
	// pricing in the window engine stays on the slabs.
	layout := DefaultGUPSLayout()
	layout.Updates = 32
	prog, err := GUPSProgram(layout)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(2, 16384, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	open := make([]uint64, len(m.Nodes))
	m.MemDelay = func(node int, addr uint64, wide bool) int64 {
		if row := addr / 32; row != open[node] {
			open[node] = row
			return 5
		}
		return 1
	}
	run := func() {
		m.Reset()
		clear(open)
		if err := m.LoadAll(prog); err != nil {
			t.Fatal(err)
		}
		entry, _ := prog.Entry("main")
		for i := range m.Nodes {
			m.Nodes[i].StartThread(entry, uint64(i), 0)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm
	if eng, _ := m.LastEngine(); eng != EngineWindowed {
		t.Fatalf("MemDelay run took the %v engine, want windowed", eng)
	}
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("windowed MemDelay run allocates %g times per run", avg)
	}
}

func TestPingClosedFormExact(t *testing.T) {
	// PingTotalCycles is the machine's cross-backend anchor: it must match
	// the interpreter cycle for cycle across latencies and round counts.
	for _, lat := range []int64{0, 1, 10, 200, 2000} {
		for _, rounds := range []int{1, 2, 5, 64} {
			p, err := PingProgram(PingLayout{CountAddr: 900, Peer: 1}, rounds)
			if err != nil {
				t.Fatal(err)
			}
			tm := DefaultTiming()
			tm.NetLatency = lat
			m, err := NewMachine(2, 1024, tm)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadAll(p); err != nil {
				t.Fatal(err)
			}
			entry, _ := p.Entry("ping")
			m.Nodes[0].StartThread(entry, uint64(rounds), 0)
			m.MaxCycles = 100_000_000
			cycles, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want := PingTotalCycles(rounds, lat, tm.MemCycles); cycles != want {
				t.Errorf("lat=%d rounds=%d: machine %d cycles, closed form %d", lat, rounds, cycles, want)
			}
			if got := m.Nodes[0].Mem[900]; got != uint64(rounds) {
				t.Errorf("lat=%d rounds=%d: counted %d round trips", lat, rounds, got)
			}
		}
	}
}

func TestNetAndMemDelayHooks(t *testing.T) {
	// The pluggable delay hooks must displace the flat timing exactly.
	src := `
main:
    addi r1, r0, 1
    addi r2, r0, remote
    spawn r0, r1, r2
    halt
remote:
    addi r3, r0, 900
    ld   r4, r3, 0
    halt
`
	run := func(net func(int, int) int64, mem func(int, uint64, bool) int64) int64 {
		m := mustMachine(t, src, 2)
		m.NetDelay = net
		m.MemDelay = mem
		m.MaxCycles = 100000
		cycles, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	flat := run(nil, nil)
	slowNet := run(func(src, dst int) int64 { return DefaultTiming().NetLatency + 500 }, nil)
	if slowNet-flat != 500 {
		t.Errorf("NetDelay hook shifted cycles by %d, want 500", slowNet-flat)
	}
	slowMem := run(nil, func(node int, addr uint64, wide bool) int64 { return DefaultTiming().MemCycles + 40 })
	if slowMem-flat != 40 {
		t.Errorf("MemDelay hook shifted cycles by %d, want 40", slowMem-flat)
	}
	// Sub-cycle costs clamp to one cycle, never zero or negative stalls.
	fastMem := run(nil, func(node int, addr uint64, wide bool) int64 { return 0 })
	if fastMem >= flat {
		t.Errorf("1-cycle memory (%d) not faster than flat (%d)", fastMem, flat)
	}
}

package isa

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/fault"
)

// This file holds the MemDelay hook to the same byte-identical bar as the
// rest of the PDES suite: a stateful per-node row-buffer model (one
// dram.Bank per node) must see the same calls, and so reach the same
// state, on the windowed and parallel engines as on the per-cycle oracle.

// rowBufferHook installs a dram.Bank per node as the machine's MemDelay
// hook and returns the banks. The small macro (8-word rows, 64 rows, a
// 1-ns cycle) keeps hits (2 cycles) and misses (22-25 cycles) both
// common, so the hook's state visibly steers every node's schedule.
func rowBufferHook(t testing.TB, m *Machine, policy dram.PagePolicy) []*dram.Bank {
	t.Helper()
	macro := dram.MacroConfig{
		RowBits: 512, WordBits: 64, Rows: 64,
		RowAccessNS: 20, PageAccessNS: 2, PrechargeNS: 3,
	}
	banks := make([]*dram.Bank, len(m.Nodes))
	for i := range banks {
		b, err := dram.NewBank(macro, policy)
		if err != nil {
			t.Fatal(err)
		}
		banks[i] = b
	}
	rowWords := uint64(macro.RowBits / 64)
	rows := uint64(macro.Rows)
	m.MemDelay = func(node int, addr uint64, wide bool) int64 {
		return int64(math.Ceil(banks[node].Access(int(addr / rowWords % rows))))
	}
	return banks
}

// bankFingerprint renders every bank's (accesses, hits, busyNS) exactly.
func bankFingerprint(banks []*dram.Bank) string {
	var b strings.Builder
	for i, bk := range banks {
		acc, hits, busy := bk.Stats()
		fmt.Fprintf(&b, "bank %d: accesses=%d hits=%d busy=%#x\n", i, acc, hits, math.Float64bits(busy))
	}
	return b.String()
}

// TestParallelMemDelay is the differential test for DRAM-timed runs:
// every builtin under open- and closed-page row buffers, with and without
// a straggler plan, on a flat and a torus network, must produce the
// per-cycle oracle's cycles, counters, memory, and per-bank statistics
// in every mode of parallelModes. (The TestParallel prefix puts it in
// the race CI step.)
func TestParallelMemDelay(t *testing.T) {
	plans := map[string]*fault.Config{
		"clean":     nil,
		"straggler": {Seed: 11, StragglerFactor: 3},
	}
	for _, topo := range []string{"flat", "torus"} {
		for _, policy := range []dram.PagePolicy{dram.OpenPage, dram.ClosedPage} {
			for planName, cfg := range plans {
				for progName, build := range parallelPrograms(t) {
					t.Run(fmt.Sprintf("%s/%v/%s/%s", topo, policy, planName, progName), func(t *testing.T) {
						var want string
						for _, mode := range parallelModes() {
							m := build(t)
							applyTopology(t, m, topo)
							banks := rowBufferHook(t, m, policy)
							if cfg != nil {
								m.Fault = mustFaultPlan(t, *cfg)
							}
							mode.apply(m)
							got := runFingerprint(t, m) + bankFingerprint(banks)
							if eng, _ := m.LastEngine(); mode.name != "interp" && eng == EnginePerCycle {
								t.Fatalf("%s: MemDelay run took the per-cycle engine", mode.name)
							}
							if want == "" {
								want = got
								continue
							}
							if got != want {
								t.Fatalf("%s diverges from interp oracle:\n--- %s ---\n%s--- interp ---\n%s",
									mode.name, mode.name, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestLastEngine pins the execution-path report: which engine Run took
// and why it passed over a faster one. A MemDelay hook alone never
// forces the per-cycle loop.
func TestLastEngine(t *testing.T) {
	mem := func(node int, addr uint64, wide bool) int64 { return 3 }
	cases := []struct {
		name     string
		nodes    int
		setup    func(m *Machine)
		engine   Engine
		fallback Fallback
	}{
		{"parallel", 4, func(m *Machine) { m.Parallelism = 2 }, EngineParallel, FallbackNone},
		{"parallel-memdelay", 4, func(m *Machine) { m.Parallelism = 2; m.MemDelay = mem }, EngineParallel, FallbackNone},
		{"serial", 4, func(m *Machine) {}, EngineWindowed, FallbackSerial},
		{"serial-memdelay", 4, func(m *Machine) { m.MemDelay = mem }, EngineWindowed, FallbackSerial},
		{"one-node", 1, func(m *Machine) { m.Parallelism = 4 }, EngineWindowed, FallbackSerial},
		{"zero-latency", 4, func(m *Machine) { m.Parallelism = 2; m.Timing.NetLatency = 0 }, EngineWindowed, FallbackNoLookahead},
		{"trace", 4, func(m *Machine) {
			m.Parallelism = 2
			m.Trace = func(int64, int, uint64, Instr) {}
		}, EnginePerCycle, FallbackTrace},
		{"output", 4, func(m *Machine) { m.Output = func(int, uint64) {} }, EnginePerCycle, FallbackOutput},
		{"force-interpret", 4, func(m *Machine) { m.ForceInterpret = true }, EnginePerCycle, FallbackForceInterpret},
		{"no-lookahead", 4, func(m *Machine) {
			m.Parallelism = 2
			m.NetDelay = func(src, dst int) int64 { return 7 }
		}, EnginePerCycle, FallbackNoLookahead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mustMachine(t, "main:\n addi r1, r0, 900\n ld r2, r1, 0\n halt\n", tc.nodes)
			if eng, fb := m.LastEngine(); eng != EngineNone || fb != FallbackNone {
				t.Fatalf("before Run: %v (%v), want none (none)", eng, fb)
			}
			tc.setup(m)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if eng, fb := m.LastEngine(); eng != tc.engine || fb != tc.fallback {
				t.Fatalf("LastEngine = %v (%v), want %v (%v)", eng, fb, tc.engine, tc.fallback)
			}
			m.Reset()
			if eng, fb := m.LastEngine(); eng != EngineNone || fb != FallbackNone {
				t.Fatalf("after Reset: %v (%v), want none (none)", eng, fb)
			}
		})
	}
}

// FuzzMachineMemDelay runs arbitrary words as a program image on two
// nodes under a stateful open-page row-buffer hook whose row width and
// hit/miss costs the fuzzer picks per node. The windowed engine at one
// and two workers must agree with the per-cycle oracle: on a clean halt
// in cycles, counters, memory, and hook state; on a fault in the error
// and the cycle it was reported at.
func FuzzMachineMemDelay(f *testing.F) {
	seed := func(src string, width, hit, miss uint8) {
		p, err := Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		var bs []byte
		for _, w := range p.Words {
			for i := 0; i < 8; i++ {
				bs = append(bs, byte(w>>(8*i)))
			}
		}
		f.Add(bs, width, hit, miss)
	}
	// A strided load/store loop on both nodes, a spawn to the peer, and a
	// wide op: hits, misses, and a parcel across the window barrier.
	seed(`main:
    addi r1, r0, 600
    addi r4, r0, 24
loop:
    ld   r2, r1, 0
    addi r2, r2, 1
    st   r2, r1, 0
    addi r1, r1, 5
    addi r4, r4, -1
    bne  r4, r0, loop
    vsum r5, r1
    nodeid r3
    bne  r3, r0, done
    addi r3, r0, 1
    addi r6, r0, done
    spawn r0, r3, r6
done:
    halt
`, 3, 1, 20)
	// An out-of-range load on both nodes, and a spin past MaxCycles.
	seed("main:\n ld r1, r0, 2000\n halt\n", 0, 0, 0)
	seed("main:\n addi r1, r0, 700\nspin:\n amoadd r2, r1, r1\n jmp spin\n", 7, 4, 9)
	f.Fuzz(func(t *testing.T, raw []byte, width, hit, miss uint8) {
		if len(raw) == 0 || len(raw) > 8*512 {
			return
		}
		words := make([]uint64, (len(raw)+7)/8)
		for i, b := range raw {
			words[i/8] |= uint64(b) << (8 * (i % 8))
		}
		run := func(apply func(m *Machine)) (string, int64, error) {
			m, err := NewMachine(2, 1024, DefaultTiming())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadAll(&Program{Words: words}); err != nil {
				t.Fatal(err)
			}
			// Per-node open-page model: node i's rows are 1+(width+i)%32
			// words wide, a hit costs hit%8+i cycles (0 clamps to 1), a
			// miss miss%64+i.
			open := []int64{-1, -1}
			var calls, hits [2]int64
			m.MemDelay = func(node int, addr uint64, wide bool) int64 {
				row := int64(addr / uint64(1+(int(width)+node)%32))
				calls[node]++
				if wide {
					row = -2 - row // wide accesses use their own row space
				}
				if row == open[node] {
					hits[node]++
					return int64(hit%8) + int64(node)
				}
				open[node] = row
				return int64(miss%64) + int64(node)
			}
			m.MaxCycles = 5000
			m.Nodes[0].StartThread(0, 0, 0)
			m.Nodes[1].StartThread(0, 1, 0)
			apply(m)
			cycles, err := m.Run()
			if err != nil {
				return "", cycles, err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "cycles=%d open=%v calls=%v hits=%v\n", cycles, open, calls, hits)
			for _, n := range m.Nodes {
				fmt.Fprintf(&b, "node %d: instr=%d mem=%d wide=%d spawn=%d busy=%d idle=%d done=%d mem=%v\n",
					n.ID, n.Instructions, n.MemOps, n.WideOps, n.Spawns,
					n.BusyCycles, n.IdleCycles, n.Completed, n.Mem)
			}
			return b.String(), cycles, nil
		}
		want, wantCycles, wantErr := run(func(m *Machine) { m.ForceInterpret = true })
		for _, p := range []int{1, 2} {
			got, gotCycles, gotErr := run(func(m *Machine) { m.Parallelism = p })
			if (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && (gotErr.Error() != wantErr.Error() || gotCycles != wantCycles)) {
				t.Fatalf("P=%d: error %v at cycle %d, oracle %v at cycle %d", p, gotErr, gotCycles, wantErr, wantCycles)
			}
			if got != want {
				t.Fatalf("P=%d diverges from the oracle:\n--- P=%d ---\n%s--- oracle ---\n%s", p, p, got, want)
			}
		}
	})
}

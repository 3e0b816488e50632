package isa

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/fault"
)

// ErrCanceled reports a run stopped early because Machine.Cancel returned
// true. Callers distinguish it from execution faults with errors.Is.
var ErrCanceled = errors.New("isa: run canceled")

// Timing parameterizes the cycle costs of the interpreter, in LWP cycles.
// Defaults follow Table 1's LWP figures (memory = TML/TLcycle = 6 LWP
// cycles) and the hardware-assisted parcel costs.
type Timing struct {
	// MemCycles is the cost of LD/ST/AMO (one word through the row
	// buffer).
	MemCycles int64
	// WideMemCycles is the cost of a wide (W-word) memory operation; with
	// a 2048-bit row one activation covers all W words, so the default
	// equals MemCycles.
	WideMemCycles int64
	// SpawnCycles is the local cost of creating and launching a parcel.
	SpawnCycles int64
	// NetLatency is the parcel flight time between distinct nodes.
	NetLatency int64
}

// DefaultTiming returns the Table-1-derived costs.
func DefaultTiming() Timing {
	return Timing{MemCycles: 6, WideMemCycles: 6, SpawnCycles: 2, NetLatency: 200}
}

// Validate checks the timing.
func (t Timing) Validate() error {
	if t.MemCycles <= 0 || t.WideMemCycles <= 0 || t.SpawnCycles < 0 || t.NetLatency < 0 {
		return fmt.Errorf("isa: invalid timing %+v", t)
	}
	return nil
}

// Thread is one hardware thread context. Threads live in a per-node value
// slab (no per-thread heap allocation); finished contexts are recycled
// through a free list, so steady-state spawn/halt churn allocates nothing.
type Thread struct {
	PC   uint64
	Regs [NumRegs]uint64
	// stall > 0 means the thread is paying a multi-cycle cost.
	stall int64
	done  bool
}

// flight is a parcel in transit. (sent, src) is a strict total order over
// flights — a node issues at most one instruction per cycle and fused
// tails never spawn — and it is exactly the order the per-cycle loop
// appends (and therefore delivers) them in. Windowed and parallel
// execution restore that order at every window barrier, so same-cycle
// deliveries at one node always replay the serial schedule.
type flight struct {
	arrive int64 // cycle of delivery
	sent   int64 // cycle the spawn issued
	node   int
	entry  uint64
	arg    uint64
	src    uint64
}

// NodeState is one PIM node of the machine.
type NodeState struct {
	ID  int
	Mem []uint64
	// threads is the thread-context slab; issue is round-robin over it.
	// free holds recycled (halted) slots, live counts unfinished threads.
	threads []Thread
	free    []int32
	live    int
	next    int

	// decoded is the pre-decoded program slab covering node memory
	// [progBase, progBase+len(decoded)): built by Load, kept coherent
	// with VM stores by patch/patchWide, dropped by Reset. PCs outside
	// the span fall back to per-cycle DecodeInstr.
	progBase uint64
	decoded  []decop

	// Counters.
	Instructions int64
	MemOps       int64
	WideOps      int64
	Spawns       int64
	BusyCycles   int64
	IdleCycles   int64
	Completed    int64

	// Parcel-delivery counters, live only on faulted runs (all zero when
	// Machine.Fault is nil). Every counter is attributed to the *sending*
	// node at send time — a pure function of that node's own instruction
	// stream — so parallel partitions never write another partition's
	// counters and the counts are identical across execution modes.
	ParcelsSent      int64 // remote spawns routed through the fault plan
	ParcelDrops      int64 // transmission attempts lost in the network
	ParcelCorrupts   int64 // attempts rejected by the receiver's CRC
	ParcelDups       int64 // duplicate frames (suppressed in reliable mode)
	ParcelRetries    int64 // reliable-mode retransmissions
	ParcelsDelivered int64 // parcels whose payload reached the destination
	ParcelsLost      int64 // parcels that never arrived (all attempts faulted)

	// seq numbers this node's outbound parcels, forming the canonical
	// fault identity (sent cycle, src, seq) together with the send cycle.
	seq uint64
}

// Load copies a program image into node memory and pre-decodes it into
// the node's decoded-op slab (see decode.go). Host code that pokes
// NodeState.Mem directly inside the program span afterwards must re-Load
// for the patch to be visible to the decoded dispatch.
func (n *NodeState) Load(p *Program) error {
	if p.Origin+uint64(len(p.Words)) > uint64(len(n.Mem)) {
		return fmt.Errorf("isa: program [%d, %d) exceeds node memory %d",
			p.Origin, p.Origin+uint64(len(p.Words)), len(n.Mem))
	}
	copy(n.Mem[p.Origin:], p.Words)
	n.predecode(p.Origin, uint64(len(p.Words)))
	return nil
}

// StartThread creates a thread at entry with r1 = arg, r2 = src, reusing a
// recycled context slot when one is free.
func (n *NodeState) StartThread(entry, arg, src uint64) {
	n.startThread(entry, arg, src)
}

// startThread is StartThread returning the slot index the thread landed
// in, for callers tracking readiness by slot (runNodeWindowFast).
func (n *NodeState) startThread(entry, arg, src uint64) int {
	var idx int
	if k := len(n.free); k > 0 {
		idx = int(n.free[k-1])
		n.free = n.free[:k-1]
		n.threads[idx] = Thread{}
	} else {
		idx = len(n.threads)
		n.threads = append(n.threads, Thread{})
	}
	t := &n.threads[idx]
	t.PC = entry
	t.Regs[1] = arg
	t.Regs[2] = src
	n.live++
	return idx
}

// LiveThreads returns the number of unfinished threads.
func (n *NodeState) LiveThreads() int { return n.live }

// Machine is a deterministic cycle-driven multi-node PIM interpreter: one
// instruction issue per node per cycle from the round-robin ready thread
// (fine-grain multithreading), memory/wide/parcel costs modeled as thread
// stalls, parcels delivered after a network latency.
type Machine struct {
	Nodes  []*NodeState
	Timing Timing
	// Output receives values from the print instruction (nil = dropped).
	Output func(node int, value uint64)
	// Trace, when non-nil, observes every issued instruction before it
	// executes — the debugger/profiler hook.
	Trace func(cycle int64, node int, pc uint64, in Instr)
	// NetDelay, when non-nil, supplies the parcel flight time between
	// distinct nodes instead of the flat Timing.NetLatency — the hook a
	// topology-aware interconnect (internal/network) plugs into.
	// Node-local spawns never consult it and stay free.
	NetDelay func(src, dst int) int64
	// MemDelay, when non-nil, supplies the cost of one memory operation
	// instead of the flat Timing.MemCycles/WideMemCycles — the hook a
	// row-buffer timing model (internal/dram) plugs into. Costs below one
	// cycle are clamped to one.
	//
	// Contract: a call for node i may read and write only state owned by
	// node i (one row buffer per node, say), and under Parallelism > 1
	// it is called concurrently for distinct nodes. The windowed and
	// parallel engines keep each node's sequence of memory operations
	// identical to per-cycle execution, so such a hook sees the same
	// calls, with the same arguments and in the same per-node order, on
	// every engine; only the interleaving across nodes differs.
	MemDelay func(node int, addr uint64, wide bool) int64
	// MaxCycles bounds Run (0 = no bound).
	MaxCycles int64
	// ForceInterpret disables the pre-decoded dispatch: every issued
	// cycle re-decodes the instruction word, as the VM did before the
	// decoded slab existed. The two paths are semantically identical —
	// this switch is the differential-testing oracle and the debugging
	// escape hatch.
	ForceInterpret bool
	// Parallelism, when > 1, runs the windowed node-major schedule on
	// that many workers under a conservative time-windowed protocol (see
	// runParallel): node partitions advance in lockstep windows bounded
	// by the network lookahead and exchange parcels only at window
	// barriers, in canonical (sent, src) order. Every counter, memory
	// word, fault, and cycle count is byte-identical to serial execution
	// regardless of the worker count or partition assignment. Runs that
	// install Trace/Output hooks, set ForceInterpret, or have no usable
	// lookahead (see NetLookahead) ignore Parallelism and execute
	// serially; a MemDelay hook honoring its contract runs in parallel.
	Parallelism int
	// Partition optionally assigns node i to worker Partition[i] in
	// [0, Parallelism); nil means contiguous balanced blocks. The
	// assignment only shapes load balance, never results.
	Partition []int
	// NetLookahead is the caller's promise that NetDelay(src, dst) >=
	// NetLookahead for every src != dst pair — the conservative lookahead
	// that bounds the execution window when a topology hook is installed.
	// 0 means unknown: the machine falls back to serial per-cycle
	// execution rather than guess (a NetDelay below the promise is caught
	// at the first window barrier and reported as an error). Ignored when
	// NetDelay is nil (the flat Timing.NetLatency is its own lookahead).
	// The function must be pure: parallel workers call it concurrently.
	NetLookahead int64
	// MaxWindow caps the synchronization window width in cycles so a
	// huge lookahead cannot starve parcel-free runs of termination
	// checks (0 = the 65536 default).
	MaxWindow int64
	// Fault, when non-nil, injects the plan's deterministic faults into
	// the run: parcel drop/corruption/duplication/jitter on the remote
	// spawn path, straggler cost scaling on memory and spawn stalls, and
	// a crash-at-cycle stop. Every decision is keyed by canonical parcel
	// identity (sent cycle, src, seq) or node index — never execution
	// order — so faulted runs keep the byte-identical-under-parallelism
	// guarantee. Jitter only adds latency, so declared lookaheads hold.
	Fault *fault.Plan
	// Cancel, when non-nil, is polled at cycle/window boundaries; once it
	// returns true the run stops with ErrCanceled (machine state is
	// best-effort, as on any mid-run fault). It must be safe to call from
	// the Run goroutine at any time — an atomic load or closed-channel
	// check, typically — and lets a watchdog or serving deadline actually
	// stop an abandoned run instead of leaking it.
	Cancel func() bool
	// Reliable selects the delivery protocol under an active fault plan.
	// True models a sequence-numbered ack/timeout/retransmit exchange:
	// the sender retries on an RTO timer until an attempt survives, the
	// receiver suppresses duplicates by sequence number, and programs
	// complete under loss (at degraded goodput, visible in the Parcel*
	// counters). False models fire-and-forget datagrams: a dropped or
	// corrupted parcel is simply lost and a duplicated one starts a
	// second payload thread. Ignored when Fault is nil.
	Reliable bool

	cycle    int64
	engine   Engine
	fallback Fallback
	inFlight []flight
	// fusePending holds the superinstruction tails queued this cycle;
	// they run once every node has stepped, and only if no parcel is in
	// flight (see decode.go). The slab is reused cycle to cycle.
	fusePending []fuseRef
}

// fuseRef names a thread whose fused successor is pending this cycle.
type fuseRef struct {
	n  *NodeState
	ti int32
}

// NewMachine creates n nodes with memWords words of memory each.
func NewMachine(n int, memWords int, timing Timing) (*Machine, error) {
	if n <= 0 || memWords <= 0 {
		return nil, fmt.Errorf("isa: NewMachine(%d, %d)", n, memWords)
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Timing: timing}
	for i := 0; i < n; i++ {
		m.Nodes = append(m.Nodes, &NodeState{ID: i, Mem: make([]uint64, memWords)})
	}
	return m, nil
}

// Cycle returns the current cycle count.
func (m *Machine) Cycle() int64 { return m.cycle }

// LoadAll loads the same program into every node (SPMD style).
func (m *Machine) LoadAll(p *Program) error {
	for _, n := range m.Nodes {
		if err := n.Load(p); err != nil {
			return err
		}
	}
	return nil
}

// Reset returns the machine to cycle zero — no threads, no parcels in
// flight, zeroed memory and counters — while keeping every allocated slab
// (thread contexts, flight queue, node memory), so a caller can re-load
// and re-run without reallocating.
func (m *Machine) Reset() {
	m.cycle = 0
	m.engine, m.fallback = EngineNone, FallbackNone
	m.inFlight = m.inFlight[:0]
	m.fusePending = m.fusePending[:0]
	for _, n := range m.Nodes {
		clear(n.Mem)
		n.threads = n.threads[:0]
		n.free = n.free[:0]
		n.decoded = n.decoded[:0]
		n.progBase = 0
		n.live = 0
		n.next = 0
		n.Instructions, n.MemOps, n.WideOps, n.Spawns = 0, 0, 0, 0
		n.BusyCycles, n.IdleCycles, n.Completed = 0, 0, 0
		n.ParcelsSent, n.ParcelDrops, n.ParcelCorrupts, n.ParcelDups = 0, 0, 0, 0
		n.ParcelRetries, n.ParcelsDelivered, n.ParcelsLost = 0, 0, 0
		n.seq = 0
	}
}

// Run executes until no threads are live and no parcels are in flight, or
// until MaxCycles. It returns the cycle count and an error for execution
// faults (bad opcode, out-of-range memory) or cycle exhaustion.
//
// Run fast-forwards through cycles in which nothing can issue: when a
// cycle goes by without a single issued instruction, every live thread
// is stalled and the next possible issue is the minimum of the stall
// expiries and the next parcel arrival, so the intervening cycles are
// pure bookkeeping and are applied in bulk. Cycle counts, counters, and
// faults are identical to per-cycle stepping (the Step API still
// advances one exact cycle at a time).
//
// The engine Run picks, and the reason it passed over a faster one, are
// recorded for LastEngine.
func (m *Machine) Run() (int64, error) {
	// Node-major windowed execution (see runWindowed) needs every
	// cross-node interaction bounded and unobserved: a network with a
	// known minimum cross-node latency (the flat Timing.NetLatency, or a
	// NetDelay hook with a declared NetLookahead) and no per-cycle
	// observers (Trace, Output). A MemDelay hook is node-local by its
	// contract, so it rides along. ForceInterpret keeps the full
	// pre-decode-era loop as the differential-testing oracle. With
	// Parallelism > 1 and a positive lookahead the windows themselves run
	// on multiple workers (runParallel), byte-identical to serial.
	m.engine, m.fallback = EnginePerCycle, FallbackNone
	switch {
	case m.Trace != nil:
		m.fallback = FallbackTrace
	case m.Output != nil:
		m.fallback = FallbackOutput
	case m.ForceInterpret:
		m.fallback = FallbackForceInterpret
	default:
		la, ok := m.lookahead()
		if !ok {
			m.fallback = FallbackNoLookahead
			break
		}
		window := la + 1
		if maxW := m.maxWindow(); window > maxW || window < 1 {
			window = maxW
		}
		switch {
		case m.Parallelism <= 1 || len(m.Nodes) < 2:
			m.fallback = FallbackSerial
		case la <= 0:
			m.fallback = FallbackNoLookahead
		default:
			m.engine = EngineParallel
			return m.runParallel(window)
		}
		m.engine = EngineWindowed
		return m.runWindowed(window)
	}
	for {
		live := false
		for _, n := range m.Nodes {
			if n.live > 0 {
				live = true
				break
			}
		}
		if !live && len(m.inFlight) == 0 {
			return m.cycle, nil
		}
		if m.canceled() {
			return m.cycle, ErrCanceled
		}
		if lim := m.limit(); lim > 0 && m.cycle >= lim {
			return m.cycle, m.limitErr(lim)
		}
		issued, err := m.step()
		if err != nil {
			return m.cycle, err
		}
		if !issued {
			m.fastForward()
		}
	}
}

// canceled polls the Cancel hook.
func (m *Machine) canceled() bool { return m.Cancel != nil && m.Cancel() }

// Engine names the execution engine a Run took.
type Engine uint8

// Execution engines, slowest first.
const (
	// EngineNone: no Run since construction or the last Reset.
	EngineNone Engine = iota
	// EnginePerCycle is the global per-cycle loop (step).
	EnginePerCycle
	// EngineWindowed is the serial node-major windowed loop (runWindowed).
	EngineWindowed
	// EngineParallel is the multi-worker windowed loop (runParallel).
	EngineParallel
)

var engineNames = [...]string{"none", "per-cycle", "windowed", "parallel"}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// Fallback names why a Run did not take a faster engine.
type Fallback uint8

// Fallback reasons, in the order Run checks them.
const (
	// FallbackNone: the run took the fastest engine (parallel), or no
	// Run has happened yet.
	FallbackNone Fallback = iota
	// FallbackTrace: a Trace observer pins the per-cycle loop.
	FallbackTrace
	// FallbackOutput: an Output observer pins the per-cycle loop.
	FallbackOutput
	// FallbackForceInterpret: the differential-testing oracle was asked for.
	FallbackForceInterpret
	// FallbackNoLookahead: no positive network lookahead — a NetDelay hook
	// without NetLookahead (per-cycle), or a zero flat latency with
	// Parallelism > 1 (windowed, serial).
	FallbackNoLookahead
	// FallbackSerial: Parallelism <= 1 or fewer than two nodes, so the
	// windowed engine runs on one worker.
	FallbackSerial
)

var fallbackNames = [...]string{"none", "Trace hook", "Output hook", "ForceInterpret",
	"no lookahead", "Parallelism <= 1 or fewer than 2 nodes"}

func (f Fallback) String() string {
	if int(f) < len(fallbackNames) {
		return fallbackNames[f]
	}
	return fmt.Sprintf("Fallback(%d)", uint8(f))
}

// LastEngine reports the engine the last Run took and why it did not
// take a faster one. Setting it costs Run two plain stores.
func (m *Machine) LastEngine() (Engine, Fallback) { return m.engine, m.fallback }

// Step advances the machine one cycle.
func (m *Machine) Step() error {
	_, err := m.step()
	return err
}

// step advances one cycle and reports whether any node issued an
// instruction (false means every live thread is stalled — the
// fast-forward trigger).
func (m *Machine) step() (bool, error) {
	m.cycle++
	// Deliver parcels due this cycle (in send order: deterministic).
	kept := m.inFlight[:0]
	for _, f := range m.inFlight {
		if f.arrive <= m.cycle {
			m.Nodes[f.node].StartThread(f.entry, f.arg, f.src)
		} else {
			kept = append(kept, f)
		}
	}
	m.inFlight = kept
	issued := false
	for _, n := range m.Nodes {
		ok, err := m.stepNode(n, true)
		if err != nil {
			return issued, err
		}
		issued = issued || ok
	}
	// Fused superinstruction tails run once the whole cycle has stepped:
	// only now is it known that no spawn issued this cycle, so no parcel
	// can deliver a competing thread on the (pre-claimed) next cycle.
	if len(m.fusePending) > 0 {
		if len(m.inFlight) == 0 {
			for _, p := range m.fusePending {
				m.execFusedTail(p.n, p.ti)
			}
		}
		m.fusePending = m.fusePending[:0]
	}
	return issued, nil
}

// fastForward bulk-applies the cycles up to (but not including) the next
// cycle on which anything can issue: stall expiries tick down, busy/idle
// counters advance, the clock jumps. Callers guarantee the current cycle
// issued nothing, so every skipped cycle would have been an exact no-op
// scan. The jump is capped at the run limit (MaxCycles, or an earlier
// planned crash) so exhaustion faults at the same cycle a per-cycle run
// would report.
func (m *Machine) fastForward() {
	const never = int64(^uint64(0) >> 1)
	next := never
	for _, f := range m.inFlight {
		if f.arrive < next {
			next = f.arrive
		}
	}
	for _, n := range m.Nodes {
		if n.live == 0 {
			continue
		}
		for i := range n.threads {
			t := &n.threads[i]
			if t.done {
				continue
			}
			if c := m.cycle + t.stall + 1; c < next {
				next = c
			}
		}
	}
	if next == never {
		return
	}
	delta := next - m.cycle - 1
	if lim := m.limit(); lim > 0 && m.cycle+delta > lim {
		delta = lim - m.cycle
	}
	if delta <= 0 {
		return
	}
	m.cycle += delta
	for _, n := range m.Nodes {
		if n.live == 0 {
			n.IdleCycles += delta
			continue
		}
		n.BusyCycles += delta
		for i := range n.threads {
			t := &n.threads[i]
			if !t.done && t.stall > 0 {
				t.stall -= delta
			}
		}
	}
}

// limit returns the run's effective cycle bound: MaxCycles, tightened to
// the fault plan's crash cycle when one is scheduled earlier (a planned
// crash is just a run limit that reports differently). 0 means unbounded.
func (m *Machine) limit() int64 {
	lim := m.MaxCycles
	if m.Fault != nil {
		if _, at, ok := m.Fault.CrashAt(len(m.Nodes)); ok && (lim <= 0 || at < lim) {
			lim = at
		}
	}
	return lim
}

// limitErr builds the error for a run stopped at cycle bound lim: a node
// crash when the fault plan scheduled one there, otherwise the livelock/
// exhaustion diagnosis. Both include the live-thread and in-flight state
// so a degraded run is diagnosable from the engine's per-point error
// capture alone.
func (m *Machine) limitErr(lim int64) error {
	if m.Fault != nil {
		if node, at, ok := m.Fault.CrashAt(len(m.Nodes)); ok && at == lim {
			return fmt.Errorf("isa: node %d crashed at cycle %d (fault plan): run stopped with %s", node, at, m.liveSummary())
		}
	}
	return fmt.Errorf("isa: exceeded %d cycles (livelock or unfinished work) at cycle %d with %s", lim, m.cycle, m.liveSummary())
}

// liveSummary renders the machine's blocked state: the total live-thread
// count, the per-node counts for the first few stuck nodes, and the
// number of parcels still in flight.
func (m *Machine) liveSummary() string {
	var b strings.Builder
	total, listed, stuck := 0, 0, 0
	for _, n := range m.Nodes {
		if n.live == 0 {
			continue
		}
		total += n.live
		stuck++
		if listed < 8 {
			if listed > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "node%d=%d", n.ID, n.live)
			listed++
		}
	}
	if total == 0 {
		return fmt.Sprintf("0 live threads, %d parcels in flight", len(m.inFlight))
	}
	tail := ""
	if stuck > listed {
		tail = fmt.Sprintf(" +%d more nodes", stuck-listed)
	}
	return fmt.Sprintf("%d live threads [%s%s], %d parcels in flight", total, b.String(), tail, len(m.inFlight))
}

// lookahead returns the machine's conservative network lookahead — a
// lower bound L on the flight latency of every cross-node parcel, so a
// parcel sent at cycle c cannot arrive before c+L+1 — and whether one is
// known. With the flat network the latency itself is the bound; with a
// NetDelay hook the caller must declare one via NetLookahead (ok=false
// otherwise, routing Run to the per-cycle loop).
func (m *Machine) lookahead() (la int64, ok bool) {
	if m.NetDelay == nil {
		return m.Timing.NetLatency, true
	}
	if m.NetLookahead > 0 {
		return m.NetLookahead, true
	}
	return 0, false
}

// defaultMaxWindow caps the synchronization window when MaxWindow is
// unset: wide enough that every in-repo latency regime (<= 5000 cycles)
// runs one barrier per lookahead, small enough that termination checks
// and clock arithmetic stay sane for extreme NetLatency values.
const defaultMaxWindow = 1 << 16

func (m *Machine) maxWindow() int64 {
	if m.MaxWindow > 0 {
		return m.MaxWindow
	}
	return defaultMaxWindow
}

// sortNewFlights restores canonical (sent, src) send order over the
// flights launched in the window that just ended. Node-major execution
// appends them grouped by sending node rather than in issue order; the
// flights already in the queue at window start (sent < wstart) are in
// canonical order and precede every new one, so sorting the new tail —
// insertion sort, alloc-free, tails are at most a handful of parcels —
// re-establishes the global order the per-cycle loop would have produced.
func sortNewFlights(fl []flight, wstart int64) {
	b := len(fl)
	for i := range fl {
		if fl[i].sent >= wstart {
			b = i
			break
		}
	}
	insertionSortFlights(fl[b:])
}

// insertionSortFlights sorts flights by (sent, src) — a strict total
// order (one issue slot per node per cycle).
func insertionSortFlights(fl []flight) {
	for i := 1; i < len(fl); i++ {
		f := fl[i]
		j := i - 1
		for j >= 0 && (fl[j].sent > f.sent || (fl[j].sent == f.sent && fl[j].src > f.src)) {
			fl[j+1] = fl[j]
			j--
		}
		fl[j+1] = f
	}
}

// runWindowed executes the machine node-major in windows of at most
// lookahead+1 cycles: each node runs a whole window over its own
// threads and memory before the next node starts. Within one window the
// nodes cannot interact — a cross-node parcel launched at cycle c
// arrives no earlier than c+lookahead+1, past the window's last cycle —
// so per-node execution over the same cycle range is exactly the serial
// interleaving, while the round-robin scan and the node's memory stay
// cache-hot across the whole window instead of being evicted by seven
// other nodes every cycle. Node-local parcels (latency zero) are
// delivered inside the window by scanning the flights the node itself
// appended. Cycle counts, counters, memory, and faults are identical to
// the per-cycle loop; Run gates entry on the conditions that make the
// proof hold (no Trace/Output observers ordering events across nodes
// within a cycle, and either a flat network or a NetDelay hook with a
// declared NetLookahead). Each node also issues its memory operations in
// the per-cycle order, so a node-local MemDelay hook sees the same calls.
func (m *Machine) runWindowed(window int64) (int64, error) {
	for {
		live := false
		for _, n := range m.Nodes {
			if n.live > 0 {
				live = true
				break
			}
		}
		if !live && len(m.inFlight) == 0 {
			return m.cycle, nil
		}
		if m.canceled() {
			return m.cycle, ErrCanceled
		}
		if lim := m.limit(); lim > 0 && m.cycle >= lim {
			return m.cycle, m.limitErr(lim)
		}
		wstart := m.cycle + 1
		wend := wstart + window - 1
		if lim := m.limit(); lim > 0 && wend > lim {
			wend = lim
		}
		// The first fault in (cycle, node) order wins, as in the serial
		// loop. Later-ordered nodes may have run past the fault cycle
		// when it is reported; post-fault machine state is best-effort
		// either way.
		var (
			firstErr      error
			firstErrCycle int64
			lastIssue     int64
		)
		for _, n := range m.Nodes {
			last, errCycle, err := m.runNodeWindow(n, wstart, wend)
			if err != nil && (firstErr == nil || errCycle < firstErrCycle) {
				firstErr, firstErrCycle = err, errCycle
			}
			if last > lastIssue {
				lastIssue = last
			}
		}
		if firstErr != nil {
			m.cycle = firstErrCycle
			return m.cycle, firstErr
		}
		// Drop delivered flights (tombstoned by runNodeWindow) and restore
		// canonical (sent, src) send order over the window's new parcels,
		// so same-cycle deliveries at one node replay the serial schedule
		// even when flight times differ per pair (NetDelay). Any surviving
		// flight due inside the window means a cross-node latency undercut
		// the declared lookahead — the window proof is void, so fault
		// rather than silently diverge from per-cycle execution.
		kept := m.inFlight[:0]
		for _, f := range m.inFlight {
			if f.node >= 0 {
				if f.arrive <= wend {
					m.cycle = wend
					return m.cycle, fmt.Errorf(
						"isa: parcel %d->%d due at cycle %d survived the window ending %d: NetDelay below NetLookahead %d",
						f.src, f.node, f.arrive, wend, m.NetLookahead)
				}
				kept = append(kept, f)
			}
		}
		m.inFlight = kept
		sortNewFlights(m.inFlight, wstart)
		m.cycle = wend
		// If the machine finished inside the window, the run ended at
		// the final halt: the serial loop stops there, so roll back the
		// idle cycles each node charged past it.
		if len(m.inFlight) == 0 {
			done := true
			for _, n := range m.Nodes {
				if n.live > 0 {
					done = false
					break
				}
			}
			if done {
				for _, n := range m.Nodes {
					n.IdleCycles -= wend - lastIssue
				}
				m.cycle = lastIssue
				return m.cycle, nil
			}
		}
	}
}

// runNodeWindow runs node n alone over cycles [wstart, wend], returning
// the last cycle at which it issued an instruction and, on an execution
// fault, the cycle it faulted. Delivered flights are tombstoned
// (node = -1) in place so the shared slice stays index-stable for the
// nodes that have not run their window yet.
func (m *Machine) runNodeWindow(n *NodeState, wstart, wend int64) (lastIssue, errCycle int64, err error) {
	c := wstart
	if len(n.threads) < 64 {
		var resume int64
		lastIssue, resume, errCycle, err = m.runNodeWindowFast(n, wstart, wend)
		if err != nil || resume == 0 {
			return lastIssue, errCycle, err
		}
		// The thread slab outgrew the 64-slot readiness mask mid-window
		// (a delivery burst); finish the window generically.
		c = resume
	}
	for c <= wend {
		m.cycle = c
		if len(m.inFlight) > 0 {
			for i := range m.inFlight {
				f := &m.inFlight[i]
				if f.node == n.ID && f.arrive <= c {
					n.StartThread(f.entry, f.arg, f.src)
					f.node = -1
				}
			}
		}
		if n.live == 0 {
			// Idle until the node's next parcel arrival, or out the
			// window if none is due.
			next := wend + 1
			for i := range m.inFlight {
				f := &m.inFlight[i]
				if f.node == n.ID && f.arrive < next {
					next = f.arrive
				}
			}
			n.IdleCycles += next - c
			c = next
			continue
		}
		issued, serr := m.stepNode(n, c < wend)
		if serr != nil {
			return lastIssue, c, serr
		}
		// Drain the fused tail this node may have queued: within its
		// window the node owns the next cycle's slot outright (stepNode
		// only marks fusion fusible away from the window edge, and an
		// empty flight queue at issue time rules out a competing
		// delivery), so the tail runs here instead of at the end of a
		// global cycle.
		if len(m.fusePending) > 0 {
			if len(m.inFlight) == 0 {
				for _, p := range m.fusePending {
					m.execFusedTail(p.n, p.ti)
				}
			}
			m.fusePending = m.fusePending[:0]
		}
		if issued {
			lastIssue = c
			c++
			continue
		}
		// Every live thread is stalled: jump to the next stall expiry
		// or parcel arrival, mirroring fastForward node-locally.
		next := wend + 1
		for i := range n.threads {
			t := &n.threads[i]
			if !t.done {
				if w := c + t.stall + 1; w < next {
					next = w
				}
			}
		}
		for i := range m.inFlight {
			f := &m.inFlight[i]
			if f.node == n.ID && f.arrive > c && f.arrive < next {
				next = f.arrive
			}
		}
		if delta := next - c - 1; delta > 0 {
			n.BusyCycles += delta
			for i := range n.threads {
				t := &n.threads[i]
				if !t.done && t.stall > 0 {
					t.stall -= delta
				}
			}
		}
		c = next
	}
	return lastIssue, 0, nil
}

// runNodeWindowFast is runNodeWindow's event-driven inner loop for nodes
// whose thread slab fits a 64-bit readiness mask. The per-cycle
// round-robin scan — O(threads) loads and stall decrements every cycle —
// collapses to O(1): ready threads live in a bitmask (first-set-bit from
// the rotating issue pointer is exactly the serial scan's choice),
// stalled threads carry absolute wake cycles instead of countdowns (so
// nothing ticks), and the next wake/arrival is a single compare per
// cycle. State is local to the window — masks are rebuilt from the slab
// on entry and flushed back (wake minus resume cycle = countdown) on
// every exit — so the slab representation, and with it the generic and
// per-cycle paths, stay untouched. Returns resume == 0 when the window
// completed, or the cycle the generic loop must take over from when a
// delivery pushed the slab past the mask width.
func (m *Machine) runNodeWindowFast(n *NodeState, wstart, wend int64) (lastIssue, resume, errCycle int64, err error) {
	const never = int64(^uint64(0) >> 1)
	var readyM, stalledM uint64
	var wake [64]int64
	minWake := never
	for i := range n.threads {
		t := &n.threads[i]
		if t.done {
			continue
		}
		if t.stall > 0 {
			stalledM |= 1 << uint(i)
			w := wstart + t.stall
			wake[i] = w
			if w < minWake {
				minWake = w
			}
		} else {
			readyM |= 1 << uint(i)
		}
	}
	// Without a MemDelay hook every scalar memory op stalls the same
	// fixed cost — hoist it, including the node's straggler scale
	// (constant per node). With one, LD/ST ask memCost per access.
	memHook := m.MemDelay != nil
	memC := m.Timing.MemCycles
	if m.Fault != nil {
		memC *= m.Fault.CostScale(n.ID)
	}
	if memC < 1 {
		memC = 1
	}
	// Hot node state hoisted to locals: the stores below (node memory,
	// fuse queue, counters) would otherwise force a reload of every
	// n-field on each iteration. The slab headers are stable inside a
	// window except threads, which parcel delivery can grow — refreshed
	// there. Instruction/memop counts accumulate locally and flush once;
	// execDecoded still bumps the n-fields directly, and the sums commute.
	mem := n.Mem
	prog := n.decoded
	progBase := n.progBase
	threads := n.threads
	var instr, memOps int64
	nextArr := never
	for i := range m.inFlight {
		f := &m.inFlight[i]
		if f.node == n.ID && f.arrive < nextArr {
			nextArr = f.arrive
		}
	}
	next := n.next
	if next >= len(n.threads) {
		next = 0
	}
	var busy, idle int64
	c := wstart
	for c <= wend {
		if nextArr <= c {
			// Deliver this node's due parcels in flight order.
			for i := range m.inFlight {
				f := &m.inFlight[i]
				if f.node == n.ID && f.arrive <= c {
					idx := n.startThread(f.entry, f.arg, f.src)
					f.node = -1
					if idx >= 64 {
						// Mask exhausted: hand the rest of the window
						// (and any still-undelivered parcels) to the
						// generic loop.
						resume = c
						goto flush
					}
					readyM |= 1 << uint(idx)
				}
			}
			// startThread may have grown the slab.
			threads = n.threads
			nextArr = never
			for i := range m.inFlight {
				f := &m.inFlight[i]
				if f.node == n.ID && f.arrive < nextArr {
					nextArr = f.arrive
				}
			}
		}
		if minWake <= c {
			// Move expired stalls to the ready mask, tracking the next
			// wake among the remainder.
			mw := never
			for sm := stalledM; sm != 0; sm &= sm - 1 {
				i := bits.TrailingZeros64(sm)
				if wake[i] <= c {
					stalledM &^= 1 << uint(i)
					readyM |= 1 << uint(i)
					// Clear the slab countdown too: the post-execute
					// check below reads t.stall to detect a fresh stall,
					// so a stale positive value would re-stall the
					// thread for a ghost cycle.
					threads[i].stall = 0
				} else if wake[i] < mw {
					mw = wake[i]
				}
			}
			minWake = mw
		}
		if readyM == 0 {
			if n.live == 0 {
				to := nextArr
				if to > wend {
					to = wend + 1
				}
				idle += to - c
				c = to
				continue
			}
			// Every live thread is stalled: jump to the next wake or
			// arrival (all-stalled cycles count busy, as in stepNode).
			to := minWake
			if nextArr < to {
				to = nextArr
			}
			if to > wend {
				to = wend + 1
			}
			busy += to - c
			c = to
			continue
		}
		// Choose: first ready slot at or after the issue pointer,
		// wrapping — the serial round-robin scan's pick.
		r := readyM &^ (1<<uint(next) - 1)
		var idx int
		if r != 0 {
			idx = bits.TrailingZeros64(r)
		} else {
			idx = bits.TrailingZeros64(readyM)
		}
		nT := len(threads)
		i0 := idx - next
		if i0 < 0 {
			i0 += nT
		}
		next = idx + 1
		if next >= nT {
			next = 0
		}
		// stepNode's scan recomputes its index from n.next, which moves
		// when a thread is chosen mid-scan: with q = min(i0, nT-2-i0) and
		// i0 the chosen slot's distance from the scan start, the q+1 slots
		// after the chosen one are not visited this cycle (their stalls do
		// not tick) and the q slots before it are visited twice (their
		// stalls tick twice, not below zero). Reproduce that schedule
		// exactly on the wake array.
		if q := min(i0, nT-2-i0); q >= 0 && stalledM != 0 {
			// A pushed-out wake only invalidates minWake if it held it.
			recompute := false
			for k := 1; k <= q+1; k++ {
				s := idx + k
				if s >= nT {
					s -= nT
				}
				if stalledM&(1<<uint(s)) != 0 {
					if wake[s] == minWake {
						recompute = true
					}
					wake[s]++
				}
			}
			for k := 1; k <= q; k++ {
				s := idx - k
				if s < 0 {
					s += nT
				}
				if stalledM&(1<<uint(s)) != 0 {
					if w := wake[s] - 1; w > c {
						wake[s] = w
						if w < minWake {
							minWake = w
						}
					}
				}
			}
			if recompute {
				mw := never
				for sm := stalledM; sm != 0; sm &= sm - 1 {
					if i := bits.TrailingZeros64(sm); wake[i] < mw {
						mw = wake[i]
					}
				}
				minWake = mw
			}
		}
		busy++
		// Dispatch inline (ForceInterpret is false on this path — the
		// runWindowed gate checked — so only the span check remains). The
		// common op classes — ALU (OpAdd..OpLui), control (OpBeq..OpJr),
		// and scalar LD/ST — execute right here, mirroring execDecoded
		// without the call: none can halt, spawn, or trace on this path,
		// none reads m.cycle, and the memory cost is hoisted above unless
		// a MemDelay hook prices each access.
		// Everything else (wide, amo, spawn, halt, print, invalid) goes
		// through execDecoded behind an m.cycle store and spawn tracking.
		//
		// The superinstruction precondition, evaluated only where a fuse
		// head can act on it and sharpened to what the node can see: sole
		// ready thread, chosen at the scan's last slot (i0 == nT-1, the
		// only case stepNode's double-visit of the chosen slot cannot
		// inflate its ready count past one), no stall expiring into cycle
		// c+1, and no parcel arriving here by c+1 (cross-node parcels from
		// this window land past wend, and c < wend keeps the tail's slot
		// inside the window, so nextArr covers every candidate).
		t := &threads[idx]
		var serr error
		if off := t.PC - progBase; off < uint64(len(prog)) {
			d := &prog[off]
			if d.op >= OpAdd && d.op <= OpLui {
				// ALU ops cannot fault, halt, or stall, so they skip the
				// shared epilogue entirely; only a drained fused tail can
				// change the thread's scheduling state, handled inline.
				instr++
				regs := &t.Regs
				var v uint64
				switch d.op {
				case OpAdd:
					v = regs[d.ra] + regs[d.rb]
				case OpSub:
					v = regs[d.ra] - regs[d.rb]
				case OpMul:
					v = regs[d.ra] * regs[d.rb]
				case OpAnd:
					v = regs[d.ra] & regs[d.rb]
				case OpOr:
					v = regs[d.ra] | regs[d.rb]
				case OpXor:
					v = regs[d.ra] ^ regs[d.rb]
				case OpShl:
					v = regs[d.ra] << (regs[d.rb] & 63)
				case OpShr:
					v = regs[d.ra] >> (regs[d.rb] & 63)
				case OpAddi:
					v = regs[d.ra] + d.imm
				case OpLui:
					v = d.imm
				}
				if d.rd != 0 {
					regs[d.rd] = v
				}
				t.PC++
				lastIssue = c
				if d.fuse && c < wend && readyM == 1<<uint(idx) && i0 == nT-1 &&
					minWake != c+1 && nextArr > c+1 {
					// Conditions proven, so the tail runs right here (no
					// queue round-trip). It cannot halt — execFusedTail
					// skips terminal ops — so only a fresh stall (the
					// tail's own cost, or a memory tail's) can result.
					m.execFusedTail(n, int32(idx))
					if st := t.stall; st > 0 {
						readyM &^= 1 << uint(idx)
						stalledM |= 1 << uint(idx)
						w := c + st + 1
						wake[idx] = w
						if w < minWake {
							minWake = w
						}
					}
				}
				c++
				continue
			}
			if d.op >= OpBeq && d.op <= OpJr {
				// Control ops only move the PC: no fault, no stall, no
				// fusion (branches are never fuse heads) — skip the
				// epilogue.
				instr++
				regs := &t.Regs
				pc := t.PC + 1
				switch d.op {
				case OpBeq:
					if regs[d.ra] == regs[d.rb] {
						pc = d.imm
					}
				case OpBne:
					if regs[d.ra] != regs[d.rb] {
						pc = d.imm
					}
				case OpBlt:
					if regs[d.ra] < regs[d.rb] {
						pc = d.imm
					}
				case OpJmp:
					pc = d.imm
				case OpJr:
					pc = regs[d.ra]
				}
				t.PC = pc
				lastIssue = c
				c++
				continue
			}
			if d.op == OpLd {
				instr++
				regs := &t.Regs
				addr := regs[d.ra] + d.imm
				if addr >= uint64(len(mem)) {
					errCycle, err = c, memFault(n, t.PC, addr)
					goto flush
				}
				if d.rd != 0 {
					regs[d.rd] = mem[addr]
				}
				memOps++
				t.PC++
				lastIssue = c
				// The stall cost is known here, so move the thread
				// straight to the stalled mask (the slab countdown stays
				// untouched — flush rewrites it from wake). A cost of 1
				// means no stall: the thread stays ready.
				cost := memC
				if memHook {
					cost = m.memCost(n, addr, false)
				}
				if cost > 1 {
					readyM &^= 1 << uint(idx)
					stalledM |= 1 << uint(idx)
					w := c + cost
					wake[idx] = w
					if w < minWake {
						minWake = w
					}
				}
				c++
				continue
			}
			if d.op == OpSt {
				instr++
				regs := &t.Regs
				addr := regs[d.ra] + d.imm
				if addr >= uint64(len(mem)) {
					errCycle, err = c, memFault(n, t.PC, addr)
					goto flush
				}
				mem[addr] = regs[d.rd]
				if addr-progBase < uint64(len(prog)) {
					n.patch(addr)
				}
				memOps++
				t.PC++
				lastIssue = c
				cost := memC
				if memHook {
					cost = m.memCost(n, addr, false)
				}
				if cost > 1 {
					readyM &^= 1 << uint(idx)
					stalledM |= 1 << uint(idx)
					w := c + cost
					wake[idx] = w
					if w < minWake {
						minWake = w
					}
				}
				c++
				continue
			}
			{
				m.cycle = c
				flightsBefore := len(m.inFlight)
				fusible := c < wend && readyM == 1<<uint(idx) && i0 == nT-1 &&
					minWake != c+1 && nextArr > c+1
				serr = m.execDecoded(n, t, d, idx, fusible)
				if len(m.inFlight) > flightsBefore {
					// A spawn launched: only a node-local parcel can land
					// inside the window, but track it either way.
					for i := flightsBefore; i < len(m.inFlight); i++ {
						f := &m.inFlight[i]
						if f.node == n.ID && f.arrive < nextArr {
							nextArr = f.arrive
						}
					}
				}
			}
		} else {
			m.cycle = c
			flightsBefore := len(m.inFlight)
			serr = m.executeInterp(n, idx)
			if len(m.inFlight) > flightsBefore {
				for i := flightsBefore; i < len(m.inFlight); i++ {
					f := &m.inFlight[i]
					if f.node == n.ID && f.arrive < nextArr {
						nextArr = f.arrive
					}
				}
			}
		}
		if serr != nil {
			errCycle, err = c, serr
			goto flush
		}
		lastIssue = c
		if len(m.fusePending) > 0 {
			// Conditions were proven at queue time and nothing else has
			// run since, so the tail executes unconditionally here.
			for _, p := range m.fusePending {
				m.execFusedTail(p.n, p.ti)
			}
			m.fusePending = m.fusePending[:0]
		}
		if t.done {
			readyM &^= 1 << uint(idx)
		} else if t.stall > 0 {
			readyM &^= 1 << uint(idx)
			stalledM |= 1 << uint(idx)
			w := c + t.stall + 1
			wake[idx] = w
			if w < minWake {
				minWake = w
			}
		}
		c++
	}
flush:
	// Convert wake cycles back to countdowns relative to the first cycle
	// this loop did not execute, restoring the slab representation the
	// generic/per-cycle paths (and the next window) expect.
	for sm := stalledM; sm != 0; sm &= sm - 1 {
		i := bits.TrailingZeros64(sm)
		s := wake[i] - c
		if s < 0 {
			s = 0
		}
		n.threads[i].stall = s
	}
	for rm := readyM; rm != 0; rm &= rm - 1 {
		n.threads[bits.TrailingZeros64(rm)].stall = 0
	}
	n.next = next
	n.Instructions += instr
	n.MemOps += memOps
	n.BusyCycles += busy
	n.IdleCycles += idle
	return lastIssue, resume, errCycle, err
}

// compact drops finished thread contexts once they dominate the slab, so
// a node that fanned out a burst of threads doesn't scan their dead slots
// forever after the burst drains. (The free list bounds slab growth under
// steady churn; this bounds the scan after a one-off spike.) The kept
// contexts stay in issue order and the backing array is reused, so both
// determinism and the zero-alloc discipline survive.
func (n *NodeState) compact() {
	if len(n.threads) < 64 || n.live*2 > len(n.threads) {
		return
	}
	kept := n.threads[:0]
	for i := range n.threads {
		if !n.threads[i].done {
			kept = append(kept, n.threads[i])
		}
	}
	n.threads = kept
	n.free = n.free[:0]
	n.next = 0
}

// stepNode issues at most one instruction on node n, reporting whether
// one issued. The single round-robin scan batch-services every thread of
// the node: stalled threads tick down, the issue slot goes to the next
// ready thread, and the scan proves (or disproves) that the chosen
// thread also owns the *next* cycle's slot — the superinstruction
// precondition (sole ready thread, every other live thread stalled
// beyond the next cycle, no parcel arrival pending). fuseOK lets the
// caller veto fusion when it cannot vouch for the next cycle's slot
// (a windowed run at its window's last cycle).
func (m *Machine) stepNode(n *NodeState, fuseOK bool) (bool, error) {
	if n.live == 0 {
		n.IdleCycles++
		return false, nil
	}
	n.compact()
	// Find the next ready thread round-robin; stalled threads tick down.
	nThreads := len(n.threads)
	chosen := -1
	ready := 0
	nextReady := false
	for i := 0; i < nThreads; i++ {
		idx := n.next + i
		if idx >= nThreads {
			idx -= nThreads
		}
		t := &n.threads[idx]
		if t.done {
			continue
		}
		if t.stall > 0 {
			t.stall--
			if t.stall == 0 {
				nextReady = true
			}
			continue
		}
		ready++
		if chosen < 0 {
			chosen = idx
			n.next = idx + 1
			if n.next >= nThreads {
				n.next = 0
			}
		}
	}
	// All live threads stalled counts busy (the bank is working).
	n.BusyCycles++
	if chosen < 0 {
		return false, nil
	}
	fusible := fuseOK && ready == 1 && !nextReady && len(m.inFlight) == 0
	return true, m.execute(n, chosen, fusible)
}

// memCost returns the cycle cost of one memory operation, scaled by the
// fault plan's straggler factor for slow nodes.
func (m *Machine) memCost(n *NodeState, addr uint64, wide bool) int64 {
	var c int64
	switch {
	case m.MemDelay != nil:
		c = m.MemDelay(n.ID, addr, wide)
	case wide:
		c = m.Timing.WideMemCycles
	default:
		c = m.Timing.MemCycles
	}
	if m.Fault != nil {
		c *= m.Fault.CostScale(n.ID)
	}
	if c < 1 {
		c = 1
	}
	return c
}

// spawnStall returns the issue stall of one spawn instruction (the local
// parcel-launch cost), scaled for straggler nodes.
func (m *Machine) spawnStall(n *NodeState) int64 {
	c := m.Timing.SpawnCycles
	if m.Fault != nil {
		c *= m.Fault.CostScale(n.ID)
	}
	if c < 1 {
		c = 1
	}
	return c - 1
}

// parcelLatency returns the base one-way flight time from n to dst.
func (m *Machine) parcelLatency(n *NodeState, dst int) int64 {
	if dst == n.ID {
		return 0
	}
	if m.NetDelay != nil {
		return m.NetDelay(n.ID, dst)
	}
	return m.Timing.NetLatency
}

// rto is the reliable mode's retransmission timeout toward a destination
// with base latency lat: a full round trip, the worst jitter an attempt
// can pick up, and a small ack-processing slack.
func (m *Machine) rto(lat int64) int64 {
	return 2*lat + m.Fault.Config().JitterMax + 4
}

// sendParcel launches one spawn parcel from n to dst, routing it through
// the fault plan when one is armed. Both execution paths (interpretive
// and pre-decoded) call this, so fault semantics cannot fork between
// them.
//
// The faulted path resolves the entire delivery analytically at send
// time: every attempt's fate is a pure function of (plan seed, identity,
// attempt), so the surviving arrival — if any — is known immediately and
// is the only flight that enters the queue. Crucially the flight keeps
// the *original* send cycle in flight.sent even when retransmissions
// delayed it: (sent, src) is the canonical merge order the windowed and
// parallel barriers restore, and it must name the issuing instruction
// slot, not the retry clock. Extra delay (RTO waits, jitter) only ever
// increases the arrival cycle, so the declared network lookahead remains
// a valid lower bound and conservative windows stay safe.
func (m *Machine) sendParcel(n *NodeState, dst int, entry, arg uint64) {
	lat := m.parcelLatency(n, dst)
	f := flight{arrive: m.cycle + lat + 1, sent: m.cycle, node: dst, entry: entry, arg: arg, src: uint64(n.ID)}
	if dst == n.ID || m.Fault == nil || !m.Fault.NetEnabled() {
		// Node-local spawns never cross the network; without an armed
		// plan the perfect interconnect delivers exactly one flight.
		m.inFlight = append(m.inFlight, f)
		return
	}
	id := fault.Identity{Sent: m.cycle, Src: n.ID, Seq: n.seq}
	n.seq++
	n.ParcelsSent++
	if m.Reliable {
		d := m.Fault.PlanDelivery(id, m.rto(lat))
		n.ParcelDrops += int64(d.Drops)
		n.ParcelCorrupts += int64(d.Corrupts)
		n.ParcelRetries += int64(d.Attempts - 1)
		if d.Duplicated {
			// Delivered twice on the wire; the receiver's sequence number
			// suppresses the copy, so no second thread starts.
			n.ParcelDups++
		}
		if !d.Delivered {
			// Every attempt faulted: the payload never runs. The cycle
			// limit guard diagnoses the stalled program.
			n.ParcelsLost++
			return
		}
		n.ParcelsDelivered++
		f.arrive += d.ExtraDelay
		m.inFlight = append(m.inFlight, f)
		return
	}
	// Unreliable datagram mode: one attempt, no acks, faults are final.
	switch {
	case m.Fault.Dropped(id, 0):
		n.ParcelDrops++
		n.ParcelsLost++
	case m.Fault.Corrupted(id, 0):
		n.ParcelCorrupts++
		n.ParcelsLost++
	default:
		f.arrive += m.Fault.Jitter(id, 0)
		n.ParcelsDelivered++
		m.inFlight = append(m.inFlight, f)
		if m.Fault.Duplicated(id, 0) {
			// No sequence numbers to suppress it: the duplicate starts a
			// second payload thread one cycle (plus jitter) later.
			dup := f
			dup.arrive += 1 + m.Fault.Jitter(id, 1)
			n.ParcelDups++
			m.inFlight = append(m.inFlight, dup)
		}
	}
}

// execute runs one instruction on thread slot ti of node n, dispatching
// through the pre-decoded slab when the PC is inside the program span
// (the hot path) and falling back to per-cycle decode otherwise.
func (m *Machine) execute(n *NodeState, ti int, fusible bool) error {
	if off := n.threads[ti].PC - n.progBase; off < uint64(len(n.decoded)) && !m.ForceInterpret {
		return m.execDecoded(n, &n.threads[ti], &n.decoded[off], ti, fusible)
	}
	return m.executeInterp(n, ti)
}

// executeInterp is the interpretive path: decode the instruction word at
// t.PC and execute it. Semantically identical to execDecoded — it serves
// PCs outside the decoded span, the ForceInterpret differential-testing
// mode, and documents the reference semantics the decoded path must
// preserve.
func (m *Machine) executeInterp(n *NodeState, ti int) error {
	t := &n.threads[ti]
	if t.PC >= uint64(len(n.Mem)) {
		return fmt.Errorf("isa: node %d: PC %d out of memory", n.ID, t.PC)
	}
	in, err := DecodeInstr(n.Mem[t.PC])
	if err != nil {
		return fmt.Errorf("isa: node %d pc %d: %w", n.ID, t.PC, err)
	}
	if m.Trace != nil {
		m.Trace(m.cycle, n.ID, t.PC, in)
	}
	n.Instructions++
	pcNext := t.PC + 1
	rd := func() uint64 { return t.Regs[in.Rd] }
	ra := func() uint64 { return t.Regs[in.Ra] }
	rb := func() uint64 { return t.Regs[in.Rb] }
	set := func(r uint8, v uint64) {
		if r != 0 {
			t.Regs[r] = v
		}
	}
	mem := func(addr uint64) (uint64, error) {
		if addr >= uint64(len(n.Mem)) {
			return 0, fmt.Errorf("isa: node %d pc %d: memory access %d out of %d",
				n.ID, t.PC, addr, len(n.Mem))
		}
		return n.Mem[addr], nil
	}

	switch in.Op {
	case OpHalt:
		t.done = true
		n.live--
		n.Completed++
		n.free = append(n.free, int32(ti))
		return nil
	case OpAdd:
		set(in.Rd, ra()+rb())
	case OpSub:
		set(in.Rd, ra()-rb())
	case OpMul:
		set(in.Rd, ra()*rb())
	case OpAnd:
		set(in.Rd, ra()&rb())
	case OpOr:
		set(in.Rd, ra()|rb())
	case OpXor:
		set(in.Rd, ra()^rb())
	case OpShl:
		set(in.Rd, ra()<<(rb()&63))
	case OpShr:
		set(in.Rd, ra()>>(rb()&63))
	case OpAddi:
		set(in.Rd, ra()+uint64(int64(in.Imm)))
	case OpLui:
		// Mask the immediate to its architectural 24 bits before
		// shifting: Imm is sign-extended at decode, and the extension
		// bits must not leak into result bits 48-55.
		set(in.Rd, uint64(uint32(in.Imm)&0xffffff)<<24)
	case OpLd:
		addr := ra() + uint64(int64(in.Imm))
		v, err := mem(addr)
		if err != nil {
			return err
		}
		set(in.Rd, v)
		t.stall = m.memCost(n, addr, false) - 1
		n.MemOps++
	case OpSt:
		addr := ra() + uint64(int64(in.Imm))
		if _, err := mem(addr); err != nil {
			return err
		}
		n.Mem[addr] = rd()
		n.patch(addr)
		t.stall = m.memCost(n, addr, false) - 1
		n.MemOps++
	case OpBeq:
		if ra() == rb() {
			pcNext = uint64(in.Imm)
		}
	case OpBne:
		if ra() != rb() {
			pcNext = uint64(in.Imm)
		}
	case OpBlt:
		if ra() < rb() {
			pcNext = uint64(in.Imm)
		}
	case OpJmp:
		pcNext = uint64(in.Imm)
	case OpJr:
		pcNext = ra()
	case OpAmoAdd:
		addr := ra()
		v, err := mem(addr)
		if err != nil {
			return err
		}
		n.Mem[addr] = v + rb()
		n.patch(addr)
		set(in.Rd, v)
		t.stall = m.memCost(n, addr, false) - 1
		n.MemOps++
	case OpVAdd:
		d, a, b := rd(), ra(), rb()
		// wideCheck rather than mem(x+WideWords-1): the latter wraps
		// for near-uint64-max bases and would let the element loop
		// index out of range.
		if err := n.wideCheck(t.PC, d); err != nil {
			return err
		}
		if err := n.wideCheck(t.PC, a); err != nil {
			return err
		}
		if err := n.wideCheck(t.PC, b); err != nil {
			return err
		}
		for i := uint64(0); i < WideWords; i++ {
			n.Mem[d+i] = n.Mem[a+i] + n.Mem[b+i]
		}
		n.patchWide(d)
		t.stall = m.memCost(n, d, true) - 1
		n.WideOps++
	case OpVSum:
		a := ra()
		if err := n.wideCheck(t.PC, a); err != nil {
			return err
		}
		var s uint64
		for i := uint64(0); i < WideWords; i++ {
			s += n.Mem[a+i]
		}
		set(in.Rd, s)
		t.stall = m.memCost(n, a, true) - 1
		n.WideOps++
	case OpSpawn:
		dst := int(ra())
		if dst < 0 || dst >= len(m.Nodes) {
			return fmt.Errorf("isa: node %d pc %d: spawn to node %d of %d",
				n.ID, t.PC, dst, len(m.Nodes))
		}
		m.sendParcel(n, dst, rb(), rd())
		t.stall = m.spawnStall(n)
		n.Spawns++
	case OpNodeID:
		set(in.Rd, uint64(n.ID))
	case OpPrint:
		if m.Output != nil {
			m.Output(n.ID, ra())
		}
	default:
		return fmt.Errorf("isa: node %d pc %d: unimplemented op %v", n.ID, t.PC, in.Op)
	}
	t.PC = pcNext
	return nil
}

// TotalInstructions sums instruction counts over nodes.
func (m *Machine) TotalInstructions() int64 {
	var s int64
	for _, n := range m.Nodes {
		s += n.Instructions
	}
	return s
}

// DeliveryStats aggregates the per-node parcel-delivery counters of a
// faulted run (all zero when no fault plan was armed).
type DeliveryStats struct {
	Sent, Drops, Corrupts, Dups, Retries, Delivered, Lost int64
}

// DeliveryStats sums the parcel-delivery counters over all nodes.
func (m *Machine) DeliveryStats() DeliveryStats {
	var s DeliveryStats
	for _, n := range m.Nodes {
		s.Sent += n.ParcelsSent
		s.Drops += n.ParcelDrops
		s.Corrupts += n.ParcelCorrupts
		s.Dups += n.ParcelDups
		s.Retries += n.ParcelRetries
		s.Delivered += n.ParcelsDelivered
		s.Lost += n.ParcelsLost
	}
	return s
}

// Utilization returns the busy fraction of node i over the run.
func (m *Machine) Utilization(i int) float64 {
	n := m.Nodes[i]
	total := n.BusyCycles + n.IdleCycles
	if total == 0 {
		return 0
	}
	return float64(n.BusyCycles) / float64(total)
}

// MeanUtilization returns the busy fraction averaged over all nodes.
func (m *Machine) MeanUtilization() float64 {
	if len(m.Nodes) == 0 {
		return 0
	}
	var s float64
	for i := range m.Nodes {
		s += m.Utilization(i)
	}
	return s / float64(len(m.Nodes))
}

// Package parcelsys implements the paper's second study (§4): the
// statistical queuing comparison of a conventional blocking message-passing
// system (the control) against a parcel-driven split-transaction system
// (the test) under a flat system-wide latency.
//
// Both systems run the same workload for the same simulated time and the
// total work completed is compared (Fig. 11); per-node idle time is the
// second dependent variable (Fig. 12).
//
// Workload model. Computation is carried by logical threads. A thread
// executes runs of useful 1-cycle operations punctuated by memory accesses
// (fraction MixMem of operations); each access is remote with probability
// RemoteFrac.
//
//   - Control system: one thread lives permanently on each processor. A
//     local access busies the node's memory for MemCycles. A remote access
//     sends a request (latency L), is serviced by the destination node's
//     memory, and returns (latency L); the processor *waits idle* the whole
//     round trip — the paper's third processor state.
//
//   - Test system: Parallelism threads per processor circulate as parcels.
//     A remote access moves the computation to the data: the node pays the
//     parcel-creation overhead, ships the continuation (one-way latency L),
//     and immediately services its next pending parcel; it idles only when
//     no parcels are queued ("split transaction execution").
package parcelsys

import (
	"fmt"
	"strconv"

	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Params configures one paired (control, test) experiment.
type Params struct {
	// Nodes is the number of processors in each system (Fig. 12 sweeps
	// 1…256).
	Nodes int
	// Parallelism is the number of parcels per processor in the test
	// system — the paper's "degree of parallelism exposed by the
	// split-transaction model" (Fig. 11's six major experiments).
	Parallelism int
	// RemoteFrac is the fraction of memory accesses that are remote.
	RemoteFrac float64
	// Latency is the flat one-way system latency in cycles.
	Latency float64
	// MixMem is the fraction of operations that access memory (the
	// instruction-mix parameter shared by both systems; Table 1's 0.30).
	MixMem float64
	// MemCycles is the local memory access time in cycles.
	MemCycles float64
	// Overhead prices the parcel mechanism (creation/assimilation); the
	// control system pays none of it.
	Overhead parcel.CostModel
	// Horizon is the simulated time both systems run for.
	Horizon float64
	// Seed drives all stochastic draws.
	Seed uint64
	// Net, when non-nil, supplies per-pair one-way latencies (a hop-count
	// topology from internal/network) instead of the paper's flat Latency.
	// Net.Nodes() must equal Nodes.
	Net network.Network
	// Hotspot skews remote destinations: with probability Hotspot a remote
	// access targets node 0 regardless of source; the remainder are
	// uniform. 0 (the paper's assumption) means uniform traffic.
	Hotspot float64
	// ControlThreads gives the control system multiple blocking threads
	// per processor (conventional multithreaded message passing). The
	// paper's control is single-threaded; raising this isolates the
	// parcels' remaining advantage (one-way migration vs round trips and
	// hardware-assisted handling). 0 means 1.
	ControlThreads int
	// RunParallel selects the partitioned formulation and its worker
	// count: 0 runs the original serial formulation (byte-identical to
	// previous releases), k >= 1 runs both systems partitioned over
	// min(k, Nodes) shard kernels driven by k workers (sim.ParKernel).
	// Results are identical for every k >= 1 — the formulation routes
	// parcels with per-parcel streams and serves memory accesses through
	// request/reply node servers, so its trajectory does not depend on
	// the partition assignment — but differ in their exact draws (not in
	// expectation) from the serial formulation's. Partitioning requires a
	// positive minimum one-way latency (it is the conservative lookahead).
	RunParallel int
}

// DefaultParams returns the parameter point used by the Fig. 11/12
// reproductions: PIM-like nodes (MixMem 0.3, 10-cycle local memory),
// hardware-assisted parcel overheads.
func DefaultParams() Params {
	return Params{
		Nodes:       16,
		Parallelism: 4,
		RemoteFrac:  0.3,
		Latency:     200,
		MixMem:      0.3,
		MemCycles:   10,
		Overhead:    parcel.HardwareAssisted(),
		Horizon:     200000,
		Seed:        1,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.Nodes <= 0:
		return fmt.Errorf("parcelsys: Nodes = %d", p.Nodes)
	case p.Parallelism <= 0:
		return fmt.Errorf("parcelsys: Parallelism = %d", p.Parallelism)
	case p.RemoteFrac < 0 || p.RemoteFrac > 1:
		return fmt.Errorf("parcelsys: RemoteFrac = %g", p.RemoteFrac)
	case p.Latency < 0:
		return fmt.Errorf("parcelsys: Latency = %g", p.Latency)
	case p.MixMem <= 0 || p.MixMem > 1:
		return fmt.Errorf("parcelsys: MixMem = %g (the workload needs memory accesses)", p.MixMem)
	case p.MemCycles <= 0:
		return fmt.Errorf("parcelsys: MemCycles = %g", p.MemCycles)
	case p.Horizon <= 0:
		return fmt.Errorf("parcelsys: Horizon = %g", p.Horizon)
	}
	if p.Net != nil && p.Net.Nodes() != p.Nodes {
		return fmt.Errorf("parcelsys: network has %d nodes, system has %d", p.Net.Nodes(), p.Nodes)
	}
	if p.Hotspot < 0 || p.Hotspot > 1 {
		return fmt.Errorf("parcelsys: Hotspot = %g", p.Hotspot)
	}
	if p.ControlThreads < 0 {
		return fmt.Errorf("parcelsys: ControlThreads = %d", p.ControlThreads)
	}
	if p.RunParallel < 0 {
		return fmt.Errorf("parcelsys: RunParallel = %d", p.RunParallel)
	}
	return p.Overhead.Validate()
}

// pickDest selects the destination of a remote access from src.
func (p Params) pickDest(st *rng.Stream, src int) int {
	if p.Hotspot > 0 && st.Bernoulli(p.Hotspot) {
		if src != 0 {
			return 0
		}
		// The hotspot node's own remote traffic falls back to uniform.
	}
	return otherNode(st, src, p.Nodes)
}

// latency returns the one-way latency from src to dst: the flat Latency by
// default, or the topology's value when Net is set.
func (p Params) latency(src, dst int) float64 {
	if p.Net != nil {
		return p.Net.Latency(src, dst)
	}
	return p.Latency
}

// SystemResult reports one system's run.
type SystemResult struct {
	// Ops is the total work completed: useful operations plus memory
	// accesses, summed over nodes.
	Ops int64
	// RemoteAccesses counts completed remote transactions.
	RemoteAccesses int64
	// IdleFrac is the mean fraction of processor time spent idle
	// (waiting for replies in the control, empty parcel queue in the
	// test).
	IdleFrac float64
	// PerNodeIdle is the idle fraction of each node.
	PerNodeIdle []float64
	// QueueMean is the time-averaged parcel-queue length per node (test
	// system only; zero for the control).
	QueueMean float64
}

// Result pairs the two systems.
type Result struct {
	Control SystemResult
	Test    SystemResult
	// Ratio is Test.Ops / Control.Ops — Fig. 11's vertical axis.
	Ratio float64
}

// Run executes the paired experiment.
func Run(p Params) (Result, error) {
	return runWith(p, &runState{})
}

// runState holds the per-run slabs — parcel structs with their embedded
// RNG streams, per-node statistics, control-thread machines, test-node
// machines, and node names — that Replicate reuses across replications
// instead of reallocating per run. All state is fully re-initialized by
// each run.
type runState struct {
	parcels   []workParcel
	nodes     []nodeStats
	threads   []ctrlThread
	testNodes []testNode
	names     nodeNames
	// ctrl caches the control-thread process names, indexed j*nodes+i;
	// rebuilt only when the (nodes, threads) geometry changes.
	ctrl      []string
	ctrlNodes int
}

// nodeNames caches the per-node resource/process names, which depend only
// on the node count.
type nodeNames struct {
	mem, cpu, proc, queue, test []string
}

// grow ensures the name tables cover n nodes.
func (nn *nodeNames) grow(n int) {
	for i := len(nn.mem); i < n; i++ {
		num := strconv.Itoa(i)
		nn.mem = append(nn.mem, "mem"+num)
		nn.cpu = append(nn.cpu, "cpu"+num)
		nn.proc = append(nn.proc, "ctrl-"+num)
		nn.queue = append(nn.queue, "pq"+num)
		nn.test = append(nn.test, "test-"+num)
	}
}

// ctrlNames returns the control-thread name table for the given geometry.
func (rs *runState) ctrlNames(nodes, threads int) []string {
	if len(rs.ctrl) == nodes*threads && rs.ctrlNodes == nodes {
		return rs.ctrl
	}
	rs.names.grow(nodes)
	rs.ctrl = make([]string, nodes*threads)
	for i := 0; i < nodes; i++ {
		rs.ctrl[i] = rs.names.proc[i]
		for j := 1; j < threads; j++ {
			rs.ctrl[j*nodes+i] = rs.names.proc[i] + "." + strconv.Itoa(j)
		}
	}
	rs.ctrlNodes = nodes
	return rs.ctrl
}

// slab returns s resized to n elements, reusing capacity; the caller
// re-initializes every element.
func slab[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runWith executes the paired experiment against reusable slabs.
func runWith(p Params, st *runState) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	runC, runT := runControl, runTest
	if p.RunParallel >= 1 {
		runC, runT = runControlPar, runTestPar
	}
	ctrl, err := runC(p, st)
	if err != nil {
		return Result{}, err
	}
	test, err := runT(p, st)
	if err != nil {
		return Result{}, err
	}
	r := Result{Control: ctrl, Test: test}
	if ctrl.Ops > 0 {
		r.Ratio = float64(test.Ops) / float64(ctrl.Ops)
	}
	return r, nil
}

// nodeStats accumulates per-node busy time and op counts.
type nodeStats struct {
	busy stats.TimeWeighted
	ops  int64
	rem  int64
}

// segment draws one execution segment: the number of useful ops before the
// next memory access (geometric in MixMem). Returns (usefulOps, isRemote).
func segment(st *rng.Stream, p Params) (int, bool) {
	n := st.Geometric(p.MixMem)
	remote := p.Nodes > 1 && st.Bernoulli(p.RemoteFrac)
	return n, remote
}

// runControl simulates the blocking message-passing system. Each thread
// is a run-to-completion activity (see ctrlThread): the per-switch cost of
// the N-way interleaving is an event-queue pop, not a goroutine handoff,
// and the event trajectory is identical to the original Proc-based
// formulation.
func runControl(p Params, rs *runState) (SystemResult, error) {
	k := sim.NewKernel()
	mems := make([]*sim.Resource, p.Nodes)
	cpus := make([]*sim.Resource, p.Nodes)
	rs.names.grow(p.Nodes)
	rs.nodes = slab(rs.nodes, p.Nodes)
	nodes := rs.nodes
	for i := range mems {
		mems[i] = sim.NewResource(k, rs.names.mem[i], 1, sim.FIFO)
		cpus[i] = sim.NewResource(k, rs.names.cpu[i], 1, sim.FIFO)
		nodes[i] = nodeStats{}
		nodes[i].busy.Set(0, 0)
	}
	threads := p.ControlThreads
	if threads <= 0 {
		threads = 1
	}
	rs.threads = slab(rs.threads, p.Nodes*threads)
	ctrlNames := rs.ctrlNames(p.Nodes, threads)
	for i := 0; i < p.Nodes; i++ {
		for j := 0; j < threads; j++ {
			th := &rs.threads[j*p.Nodes+i]
			*th = ctrlThread{p: &p, i: i, ns: &nodes[i], cpus: cpus, mems: mems}
			th.st.Reseed(p.Seed, 1000+uint64(i)+uint64(j)*uint64(p.Nodes))
			k.SpawnActivity(ctrlNames[j*p.Nodes+i], th)
		}
	}
	if err := k.Run(p.Horizon); err != nil {
		return SystemResult{}, err
	}
	return gather(nodes, nil, p.Horizon), nil
}

// ctrlThread is one blocking control thread as an activity state machine.
// One cycle: draw a segment, hold the processor for the useful ops, then
// perform the access — a blocking remote round trip (request out, service
// at the destination memory, reply back; the thread releases the
// processor and waits idle the whole time, the paper's third processor
// state) or a local access busying processor and memory bank.
type ctrlThread struct {
	p    *Params
	st   rng.Stream
	ns   *nodeStats
	i    int
	cpus []*sim.Resource
	mems []*sim.Resource

	state  int
	nops   int
	remote bool
	dst    int
}

// ctrlThread states.
const (
	ctSegment   = iota // draw the next segment, acquire the processor
	ctHoldCPU          // processor granted: run the useful ops
	ctUseful           // useful-ops wait finished
	ctSent             // request latency elapsed: acquire remote memory
	ctHoldRMem         // remote memory granted: service the access
	ctServed           // remote service done: reply latency
	ctReplied          // reply arrived: transaction complete
	ctHoldLMem         // local memory granted: perform the access
	ctLocalDone        // local access finished
)

// Step runs the control thread until it must wait; it loops forever (the
// horizon kill ends it).
func (t *ctrlThread) Step(a *sim.ActCtx) {
	p, ns := t.p, t.ns
	for {
		switch t.state {
		case ctSegment:
			t.nops, t.remote = segment(&t.st, *p)
			t.state = ctHoldCPU
			if !t.cpus[t.i].Acquire1Act(a) {
				return
			}
		case ctHoldCPU:
			if t.nops > 0 {
				ns.busy.Add(a.Now(), 1)
				t.state = ctUseful
				a.Wait(float64(t.nops))
				return
			}
			t.state = ctUseful
		case ctUseful:
			if t.nops > 0 {
				ns.busy.Add(a.Now(), -1)
				ns.ops += int64(t.nops)
			}
			if t.remote {
				t.cpus[t.i].Release(1)
				t.dst = p.pickDest(&t.st, t.i)
				t.state = ctSent
				a.Wait(p.latency(t.i, t.dst))
				return
			}
			t.state = ctHoldLMem
			if !t.mems[t.i].Acquire1Act(a) {
				return
			}
		case ctSent:
			t.state = ctHoldRMem
			if !t.mems[t.dst].Acquire1Act(a) {
				return
			}
		case ctHoldRMem:
			t.state = ctServed
			a.Wait(p.MemCycles)
			return
		case ctServed:
			t.mems[t.dst].Release(1)
			t.state = ctReplied
			a.Wait(p.latency(t.dst, t.i))
			return
		case ctReplied:
			ns.rem++
			ns.ops++ // the access itself is a completed operation
			t.state = ctSegment
		case ctHoldLMem:
			ns.busy.Add(a.Now(), 1)
			t.state = ctLocalDone
			a.Wait(p.MemCycles)
			return
		case ctLocalDone:
			ns.busy.Add(a.Now(), -1)
			t.mems[t.i].Release(1)
			t.cpus[t.i].Release(1)
			ns.ops++
			t.state = ctSegment
		}
	}
}

// workParcel is a migrating computation continuation in the test system.
// The RNG stream is embedded by value so a run's parcels live in one
// reusable slab instead of two allocations per parcel.
type workParcel struct {
	st rng.Stream
	// rt draws the parcel's routing decisions in the partitioned
	// formulation, where a run-wide shared stream would race across
	// shards; the serial formulation leaves it untouched. Keeping it
	// separate from st keeps the per-parcel workload draws identical
	// between the two formulations.
	rt rng.Stream
	// dst is the destination node while the parcel is in flight (the
	// shipping event carries the parcel, not a closure).
	dst int
	// pendingAccess marks that the parcel migrated because of a remote
	// memory access: the destination performs that access (now local)
	// right after assimilation.
	pendingAccess bool
}

// runTest simulates the split-transaction parcel system. Each node is a
// run-to-completion activity (see testNode); an in-flight parcel is one
// ScheduleArg event carrying the parcel itself, so the steady-state run
// schedules no closures at all.
func runTest(p Params, rs *runState) (SystemResult, error) {
	k := sim.NewKernel()
	queues := make([]*sim.Store[*workParcel], p.Nodes)
	rs.names.grow(p.Nodes)
	rs.nodes = slab(rs.nodes, p.Nodes)
	nodes := rs.nodes
	for i := range queues {
		queues[i] = sim.NewStore[*workParcel](k, rs.names.queue[i])
		nodes[i] = nodeStats{}
		nodes[i].busy.Set(0, 0)
	}
	var route rng.Stream
	route.Reseed(p.Seed, 500)

	// Seed Parallelism parcels at every node: the paper's "average number
	// of parcels per processor".
	rs.parcels = slab(rs.parcels, p.Nodes*p.Parallelism)
	for i := 0; i < p.Nodes; i++ {
		for j := 0; j < p.Parallelism; j++ {
			wp := &rs.parcels[i*p.Parallelism+j]
			wp.pendingAccess = false
			wp.st.Reseed(p.Seed, 2000+uint64(i)*64+uint64(j))
			queues[i].TryPut(wp)
		}
	}

	// deliver lands an in-flight parcel at its destination queue.
	deliver := func(x any) {
		wp := x.(*workParcel)
		queues[wp.dst].TryPut(wp)
	}
	rs.testNodes = slab(rs.testNodes, p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		n := &rs.testNodes[i]
		*n = testNode{p: &p, i: i, ns: &nodes[i], queue: queues[i], route: &route, deliver: deliver}
		k.SpawnActivity(rs.names.test[i], n)
	}
	if err := k.Run(p.Horizon); err != nil {
		return SystemResult{}, err
	}
	return gather(nodes, queues, p.Horizon), nil
}

// testNode is one split-transaction processor as an activity state
// machine. One parcel service: idle until a parcel is queued, pay the
// assimilation overhead, perform the access that caused the migration
// (the computation moved to the data), then execute the thread locally —
// useful ops and local accesses — until it needs remote data again, at
// which point the continuation ships one-way and the node services its
// next pending parcel.
type testNode struct {
	p       *Params
	i       int
	ns      *nodeStats
	queue   *sim.Store[*workParcel]
	route   *rng.Stream
	deliver func(any)
	// send, when set, ships parcels the partitioned way: destination
	// drawn from the parcel's own routing stream, delivery via a
	// cross-partition Send (see runTestPar). nil = serial formulation.
	send func(*workParcel)

	state int
	wp    *workParcel
	nops  int
	rem   bool
}

// testNode states.
const (
	tnFetch      = iota // take (or wait for) the next pending parcel
	tnAssimDone         // assimilation overhead paid
	tnAccessDone        // migrated access performed
	tnSegment           // draw the next execution segment
	tnUsefulDone        // useful-ops run finished
	tnLocalDone         // local memory access finished
	tnCreateDone        // parcel-creation overhead paid: ship
)

// busyFor marks the node busy for d cycles and parks until they elapse,
// resuming in state next (which starts by marking the node idle again).
func (n *testNode) busyFor(a *sim.ActCtx, d float64, next int) {
	n.ns.busy.Add(a.Now(), 1)
	n.state = next
	a.Wait(d)
}

// Step runs the node until it must wait; it loops forever (the horizon
// kill ends it).
func (n *testNode) Step(a *sim.ActCtx) {
	p, ns := n.p, n.ns
	for {
		switch n.state {
		case tnFetch:
			// Idle while the queue is empty (the registration blocks).
			wp, ok := n.queue.GetAct(a)
			if !ok {
				return
			}
			n.wp = wp
			// Assimilation overhead to instantiate the parcel's action.
			if p.Overhead.AssimilateCycles > 0 {
				n.busyFor(a, p.Overhead.AssimilateCycles, tnAssimDone)
				return
			}
			if n.postAssim(a) {
				return
			}
		case tnAssimDone:
			ns.busy.Add(a.Now(), -1)
			if n.postAssim(a) {
				return
			}
		case tnAccessDone:
			ns.busy.Add(a.Now(), -1)
			ns.ops++
			n.state = tnSegment
		case tnSegment:
			n.nops, n.rem = segment(&n.wp.st, *p)
			if n.nops > 0 {
				n.busyFor(a, float64(n.nops), tnUsefulDone)
				return
			}
			if n.afterUseful(a) {
				return
			}
		case tnUsefulDone:
			ns.busy.Add(a.Now(), -1)
			ns.ops += int64(n.nops)
			if n.afterUseful(a) {
				return
			}
		case tnLocalDone:
			ns.busy.Add(a.Now(), -1)
			ns.ops++
			n.state = tnSegment
		case tnCreateDone:
			ns.busy.Add(a.Now(), -1)
			n.ship(a)
		}
	}
}

// postAssim performs the access that caused the migration, if any — it
// executes here, where the data lives. Reports whether the node parked.
func (n *testNode) postAssim(a *sim.ActCtx) bool {
	if n.wp.pendingAccess {
		n.wp.pendingAccess = false
		n.busyFor(a, n.p.MemCycles, tnAccessDone)
		return true
	}
	n.state = tnSegment
	return false
}

// afterUseful branches on the drawn access: local (busy the memory bank)
// or remote (pay the creation overhead, then ship). Reports whether the
// node parked; a free ship turns straight to the next fetch.
func (n *testNode) afterUseful(a *sim.ActCtx) bool {
	if !n.rem {
		n.busyFor(a, n.p.MemCycles, tnLocalDone)
		return true
	}
	// Remote access: move the computation to the data.
	if n.p.Overhead.CreateCycles > 0 {
		n.busyFor(a, n.p.Overhead.CreateCycles, tnCreateDone)
		return true
	}
	n.ship(a)
	return false
}

// ship sends the current parcel one-way to its destination and turns to
// the next pending parcel.
func (n *testNode) ship(a *sim.ActCtx) {
	n.ns.rem++
	wp := n.wp
	wp.pendingAccess = true
	if n.send != nil {
		wp.dst = n.p.pickDest(&wp.rt, n.i)
		n.send(wp)
	} else {
		wp.dst = n.p.pickDest(n.route, n.i)
		a.Kernel().ScheduleArg(n.p.latency(n.i, wp.dst), n.deliver, wp)
	}
	n.wp = nil
	n.state = tnFetch
}

// otherNode picks a uniform destination distinct from self when possible.
func otherNode(st *rng.Stream, self, n int) int {
	if n == 1 {
		return 0
	}
	d := st.Intn(n - 1)
	if d >= self {
		d++
	}
	return d
}

// gather folds per-node statistics into a SystemResult. It copies
// everything it reports, so the caller may reuse the nodes slab
// immediately.
func gather(nodes []nodeStats, queues []*sim.Store[*workParcel], horizon float64) SystemResult {
	var r SystemResult
	r.PerNodeIdle = make([]float64, len(nodes))
	var idleSum, queueSum float64
	for i := range nodes {
		ns := &nodes[i]
		r.Ops += ns.ops
		r.RemoteAccesses += ns.rem
		busyFrac := ns.busy.Mean(horizon)
		idle := 1 - busyFrac
		if idle < 0 {
			idle = 0
		}
		r.PerNodeIdle[i] = idle
		idleSum += idle
	}
	r.IdleFrac = idleSum / float64(len(nodes))
	if queues != nil {
		for _, q := range queues {
			queueSum += q.Len.Mean(horizon)
		}
		r.QueueMean = queueSum / float64(len(queues))
	}
	return r
}

// Replicated reports a metric's mean and 95% confidence half-width over
// independent replications.
type Replicated struct {
	Mean float64
	CI95 float64
	N    int
}

// ReplicatedResult aggregates independent replications of Run.
type ReplicatedResult struct {
	Ratio    Replicated
	CtrlIdle Replicated
	TestIdle Replicated
}

// Replicate runs the paired experiment `reps` times with independent
// seeds derived from p.Seed and returns confidence intervals — the
// standard independent-replications method for steady-state DES output.
func Replicate(p Params, reps int) (ReplicatedResult, error) {
	if reps < 2 {
		return ReplicatedResult{}, fmt.Errorf("parcelsys: Replicate needs at least 2 replications")
	}
	var ratio, ctrl, test stats.Sample
	seeds := rng.New(p.Seed)
	// One slab of parcels, node stats, and RNG streams serves every
	// replication: each run reseeds the streams in place.
	var rs runState
	for i := 0; i < reps; i++ {
		q := p
		q.Seed = seeds.Uint64()
		r, err := runWith(q, &rs)
		if err != nil {
			return ReplicatedResult{}, err
		}
		ratio.Add(r.Ratio)
		ctrl.Add(r.Control.IdleFrac)
		test.Add(r.Test.IdleFrac)
	}
	mk := func(s *stats.Sample) Replicated {
		return Replicated{Mean: s.Mean(), CI95: s.CI(0.95), N: int(s.N())}
	}
	return ReplicatedResult{Ratio: mk(&ratio), CtrlIdle: mk(&ctrl), TestIdle: mk(&test)}, nil
}

// ControlIdleFracAnalytic returns the closed-form idle fraction of one
// control processor ignoring destination-memory queueing: per remote
// transaction the processor idles 2L while a cycle of work costs
// E[segment busy] = E[ops] + MemCycles.
func ControlIdleFracAnalytic(p Params) float64 {
	if p.Nodes == 1 || p.RemoteFrac == 0 {
		return 0
	}
	eOps := (1 - p.MixMem) / p.MixMem // mean useful ops per access
	busyPerAccess := eOps + p.MemCycles
	idlePerAccess := p.RemoteFrac * 2 * p.Latency
	return idlePerAccess / (busyPerAccess + idlePerAccess)
}

// TestSaturationRatioAnalytic returns the first-order prediction of
// Fig. 11's ratio: the test system saturates at full utilization once
// enough parallelism covers the in-flight time, so the ratio approaches
// 1/(1 − controlIdle), degraded by the parcel overhead share.
func TestSaturationRatioAnalytic(p Params) float64 {
	eOps := (1 - p.MixMem) / p.MixMem
	busyPerAccess := eOps + p.MemCycles
	ctrlCycle := busyPerAccess + p.RemoteFrac*2*p.Latency
	// Test busy per access includes overhead on the remote fraction; a
	// remote access costs create+assimilate but saves the memory visit at
	// the source (it happens at the destination, which is also counted as
	// busy there — system-wide the work moves, not disappears).
	testBusy := busyPerAccess + p.RemoteFrac*(p.Overhead.CreateCycles+p.Overhead.AssimilateCycles)
	// In-flight (not runnable) time per access in the test system.
	flight := p.RemoteFrac * p.Latency
	util := float64(p.Parallelism) * testBusy / (testBusy + flight)
	if util > 1 {
		util = 1
	}
	// Ops per cycle per node: control completes one access-cycle per
	// ctrlCycle; test completes util/testBusy access-cycles per cycle.
	ratio := (util / testBusy) * ctrlCycle
	return ratio
}

package sim

// Conservative time-windowed parallel execution of one simulation —
// ROADMAP item 1's DES half, the counterpart of the machine backend's
// isa.runParallel (PR 7). A ParKernel is P shard kernels whose event
// queues are the partitions of one partitionedQueue. The coordinator
// reads the queue's merge front for the global minimum W and opens the
// window [W, W+L), where L is the model-declared lookahead: the minimum
// cross-shard event delay. Persistent workers drain their shards up to
// the horizon concurrently; cross-shard Sends buffer per shard and merge
// at the barrier in canonical (t, seq) order.
//
// What makes the trajectories byte-identical to the serial kernel — not
// merely deterministic per worker count — is the barrier's replay
// renumbering. The serial kernel breaks time ties by seq, the global
// schedule counter, so equality requires reproducing the exact serial
// counter values. While the run is single-threaded (model setup, between
// windows) shards draw from the shared counter directly, so those seqs
// are exact. During a window each shard numbers its schedules
// provisionally from the shared counter's value at the window start
// (the base) and logs every schedule under the event that made it (its
// caller). Conservative lookahead guarantees each shard fires exactly
// the window events the serial run would, in the same shard-local order,
// so the per-shard caller logs are each ascending in serial order; the
// barrier then replays them through a P-way merge on (t, caller seq) —
// resolving provisional caller seqs through the assignments already made
// — and hands out exact serial seqs call by call. Still-queued events
// are re-stamped in place (provisional and serial numbering are
// order-isomorphic within a shard, so the queue order is unchanged —
// bucket lists and overflow heap alike, as both read their keys from the
// event itself);
// buffered cross-shard sends become deliveries carrying their exact
// seq. Every provisional number is gone by the time anything can observe
// it across shards.
//
// The contract a model buys this with: shards share no mutable state,
// and every cross-shard interaction goes through Kernel.Send with delay
// >= the declared lookahead. Partitions that never communicate may
// declare an infinite lookahead, collapsing the run into one window per
// drain. A ParKernel with one partition skips the window machinery
// entirely and IS the serial kernel, which keeps the oracle honest: the
// equivalence tests run the same model code both ways.

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// shardState is the per-shard half of a partitioned run, hung off
// Kernel.par. During a window it is touched only by the worker (and the
// process goroutines) driving that shard; the coordinator touches it only
// between windows, with channel synchronization ordering the two.
type shardState struct {
	pk  *ParKernel
	idx int

	// window is true while a parallel window is draining this shard: the
	// shard numbers schedules provisionally and logs them for the barrier.
	window bool
	// base is the shared counter's value at the window start; seqs below
	// it are exact serial numbers, seqs at or above it are provisional.
	base uint64

	// curT/curSeq identify the event currently firing — the caller of any
	// schedule made during the window; curLogged dedups the caller record.
	curT      Time
	curSeq    uint64
	curLogged bool

	// The shard's replay log, lent by the run's replayScratch while the
	// workers are up.
	*replayLog
}

// replayLog is one shard's window log and barrier bookkeeping.
type replayLog struct {
	callers  []callerRec
	calls    []callRec
	outbox   []outMsg
	assigned []uint64 // provisional offset -> exact seq

	ci, ki, oi int // merge cursors into callers, calls and outbox
}

// replayScratch is the barrier bookkeeping of one partitioned run: every
// shard's replay log plus the renumbered deliveries. Windows reuse it,
// and so do runs: startWorkers takes one from replayPool and Close puts
// it back, so a model that runs many partitioned simulations stops
// growing fresh logs by append-doubling every run.
type replayScratch struct {
	logs       []replayLog
	deliveries []delivery
}

var replayPool sync.Pool // of *replayScratch

// appendLog is append for the replay logs, growing them by doubling. A
// run's first windows grow each log to its largest window's size, and
// append's gentler growth for large slices (about 1.25×) would allocate
// around five times that size on the way there instead of two.
func appendLog[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+64)
	}
	return append(s, v)
}

// callerRec groups the consecutive schedules made under one fired event.
type callerRec struct {
	t   Time
	seq uint64 // provisional if >= base, exact otherwise
	n   int    // schedules logged under this caller
}

// callRec is one logged schedule: the event it created, pinned to its
// incarnation so a recycled struct is not re-stamped by mistake, or nil
// for a cross-shard Send (which pairs with the next outbox entry).
type callRec struct {
	ev  *event
	gen uint64
}

// outMsg is one buffered cross-shard Send.
type outMsg struct {
	to  int
	t   Time
	fn  func(any)
	arg any
}

// logCall records one schedule under the current caller.
func (sh *shardState) logCall(ev *event, gen uint64) {
	if !sh.curLogged {
		sh.curLogged = true
		sh.callers = appendLog(sh.callers, callerRec{t: sh.curT, seq: sh.curSeq})
	}
	sh.callers[len(sh.callers)-1].n++
	sh.calls = appendLog(sh.calls, callRec{ev: ev, gen: gen})
}

// Send schedules fn(arg) on the given partition after delay. On a
// standalone kernel (and for a shard sending to itself) it is exactly
// ScheduleArg, so partition-aware model code runs unchanged on the serial
// kernel. On a partitioned run a cross-shard send must respect the
// declared lookahead (delay >= lookahead); a violation panics, which the
// kernel's callback containment converts into the run's error.
func (k *Kernel) Send(part int, delay Time, fn func(any), arg any) {
	sh := k.par
	if sh == nil || part == sh.idx {
		k.ScheduleArg(delay, fn, arg)
		return
	}
	pk := sh.pk
	if part < 0 || part >= len(pk.parts) {
		panic(fmt.Sprintf("sim: Send to partition %d of %d", part, len(pk.parts)))
	}
	if delay < pk.lookahead {
		panic(fmt.Sprintf("sim: Send delay %g below declared lookahead %g (partition %d -> %d)",
			delay, pk.lookahead, sh.idx, part))
	}
	t := k.now + delay
	if !sh.window {
		// Single-threaded phase: deliver directly with an exact seq.
		seq := pk.seq
		pk.seq++
		pk.parts[part].deliverEvent(t, seq, fn, arg)
		return
	}
	// Window: consume one provisional seq (so the replay's call-to-seq
	// pairing stays exact) and buffer the message for the barrier.
	k.seq++
	sh.logCall(nil, 0)
	sh.outbox = appendLog(sh.outbox, outMsg{to: part, t: t, fn: fn, arg: arg})
}

// deliverEvent injects a cross-shard delivery carrying an externally
// assigned sequence number. Only the coordinator (between windows) and
// single-threaded Sends use it.
func (k *Kernel) deliverEvent(t Time, seq uint64, fn func(any), arg any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: cross-partition delivery at %g before destination now (%g)", t, k.now))
	}
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		ev.t = t
	} else {
		ev = &event{t: t}
	}
	ev.seq = seq
	ev.afn, ev.arg = fn, arg
	k.events.push(ev)
}

// Partition returns the shard index this kernel runs as, or 0 for a
// standalone kernel — models use it to learn their own address for Sends.
func (k *Kernel) Partition() int {
	if k.par == nil {
		return 0
	}
	return k.par.idx
}

// windowJob is one window broadcast to the workers: drain up to h,
// exclusive when strict (the usual [W, W+L) window) or inclusive when not
// (the final window of a bounded run, clamped to `until`).
type windowJob struct {
	h      Time
	strict bool
}

// ParKernel runs one simulation partitioned over P shard kernels on a
// pool of persistent workers. Build the model across the shard kernels
// (Part), communicate between partitions only via Send with delay >= the
// declared lookahead, then drive the run with Run, Advance, or
// RunUntilIdle from one goroutine.
type ParKernel struct {
	parts     []*Kernel
	pq        *partitionedQueue
	lookahead Time
	workers   int
	seq       uint64 // the shared serial schedule counter

	scratch *replayScratch // held between startWorkers and Close

	work    []chan windowJob
	done    chan struct{}
	started bool
	closed  bool

	err     error
	stopped bool
}

// delivery is one renumbered cross-shard message awaiting injection.
type delivery struct {
	to  int
	t   Time
	seq uint64
	fn  func(any)
	arg any
}

// NewParKernel creates a partitioned simulation with the given partition
// count, worker count (clamped to [1, parts]), and lookahead — the
// model-declared minimum cross-partition event delay. The lookahead must
// be positive when parts > 1; math.Inf(1) declares that the partitions
// never communicate during a drain.
func NewParKernel(parts, workers int, lookahead Time) *ParKernel {
	if parts < 1 {
		panic(fmt.Sprintf("sim: NewParKernel with %d partitions", parts))
	}
	if parts > 1 && !(lookahead > 0) {
		panic(fmt.Sprintf("sim: NewParKernel with %d partitions needs a positive lookahead, got %g", parts, lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > parts {
		workers = parts
	}
	pk := &ParKernel{
		pq:        &partitionedQueue{parts: make([]*calQueue, parts)},
		lookahead: lookahead,
		workers:   workers,
	}
	pk.parts = make([]*Kernel, parts)
	for i := range pk.parts {
		k := NewKernel()
		k.par = &shardState{pk: pk, idx: i}
		pk.parts[i] = k
		pk.pq.parts[i] = &k.events
	}
	return pk
}

// Part returns shard i's kernel.
func (pk *ParKernel) Part(i int) *Kernel { return pk.parts[i] }

// Parts returns the partition count.
func (pk *ParKernel) Parts() int { return len(pk.parts) }

// Workers returns the worker count.
func (pk *ParKernel) Workers() int { return pk.workers }

// Lookahead returns the declared minimum cross-partition delay.
func (pk *ParKernel) Lookahead() Time { return pk.lookahead }

// Now returns the latest shard time — after a completed Advance or Run
// every shard agrees on it.
func (pk *ParKernel) Now() Time {
	t := pk.parts[0].now
	for _, k := range pk.parts[1:] {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// startWorkers spins up the persistent pool on first use. Worker w owns
// shards w, w+W, w+2W, ... and drains them in that order each window.
func (pk *ParKernel) startWorkers() {
	if pk.closed {
		panic("sim: ParKernel driven after Close")
	}
	if pk.started {
		return
	}
	pk.started = true
	sc, _ := replayPool.Get().(*replayScratch)
	if sc == nil {
		sc = new(replayScratch)
	}
	for len(sc.logs) < len(pk.parts) {
		sc.logs = append(sc.logs, replayLog{})
	}
	pk.scratch = sc
	for i, k := range pk.parts {
		k.par.replayLog = &sc.logs[i]
	}
	pk.work = make([]chan windowJob, pk.workers)
	pk.done = make(chan struct{}, pk.workers)
	for w := range pk.work {
		pk.work[w] = make(chan windowJob)
		go func(w int) {
			for job := range pk.work[w] {
				for s := w; s < len(pk.parts); s += pk.workers {
					k := pk.parts[s]
					if !k.stopped {
						k.windowDrain(job.h, job.strict)
					}
				}
				pk.done <- struct{}{}
			}
		}(w)
	}
}

// Close stops the worker pool. Run and RunUntilIdle close on completion;
// only Advance-style incremental driving needs an explicit Close.
// Closing is idempotent.
func (pk *ParKernel) Close() {
	if !pk.started || pk.closed {
		pk.closed = true
		return
	}
	pk.closed = true
	for _, c := range pk.work {
		close(c)
	}
	// The scratch goes back to the pool with no references into this run,
	// so a pooled log keeps no events, callbacks or arguments alive.
	sc := pk.scratch
	for i := range pk.parts {
		l := &sc.logs[i]
		clear(l.calls[:cap(l.calls)])
		clear(l.outbox[:cap(l.outbox)])
		pk.parts[i].par.replayLog = nil
	}
	clear(sc.deliveries[:cap(sc.deliveries)])
	pk.scratch = nil
	replayPool.Put(sc)
}

// windowDrain drains one shard for one window; runs on a worker.
func (k *Kernel) windowDrain(h Time, strict bool) {
	k.strict = strict
	k.drain(h, true)
	k.strict = false
}

// collect folds shard status into the run: the first error (lowest shard
// index on ties — the serial run would have surfaced whichever came
// first; with errors on several shards at one barrier the tie is broken
// deterministically) and any Stop request.
func (pk *ParKernel) collect() {
	for _, k := range pk.parts {
		if k.err != nil && pk.err == nil {
			pk.err = k.err
		}
		if k.stopped {
			pk.stopped = true
		}
	}
}

// runWindows is the coordinator loop: open the window at the global
// minimum, drain all shards concurrently, renumber and deliver at the
// barrier; repeat until the bound (or the queue) is exhausted.
func (pk *ParKernel) runWindows(until Time, bounded bool) {
	pk.startWorkers()
	for {
		pk.collect()
		if pk.err != nil || pk.stopped {
			return
		}
		head := pk.pq.peek()
		if head == nil {
			return
		}
		w := head.t
		if bounded && w > until {
			return
		}
		job := windowJob{h: w + pk.lookahead, strict: true}
		if bounded && !(job.h <= until) {
			job = windowJob{h: until, strict: false}
		}
		base := pk.seq
		for _, k := range pk.parts {
			sh := k.par
			sh.window = true
			sh.base = base
			k.seq = base
			sh.callers = sh.callers[:0]
			sh.calls = sh.calls[:0]
			sh.outbox = sh.outbox[:0]
			sh.assigned = sh.assigned[:0]
		}
		for _, c := range pk.work {
			c <- job
		}
		for range pk.work {
			<-pk.done
		}
		for _, k := range pk.parts {
			k.par.window = false
		}
		pk.merge(base)
	}
}

// merge is the barrier's replay renumbering: walk the per-shard caller
// logs in ascending serial (t, seq) order — exactly the order the serial
// kernel would have made these schedules in — assigning each call its
// exact serial sequence number. Calls that created still-queued events
// re-stamp them in place; cross-shard sends become deliveries, injected
// in assignment order.
func (pk *ParKernel) merge(base uint64) {
	for _, k := range pk.parts {
		l := k.par.replayLog
		l.ci, l.ki, l.oi = 0, 0, 0
	}
	for {
		best := -1
		var bt Time
		var bseq uint64
		for s, k := range pk.parts {
			sh := k.par
			if sh.ci >= len(sh.callers) {
				continue
			}
			rec := sh.callers[sh.ci]
			key := rec.seq
			if key >= base {
				// A caller created earlier in this window: its exact seq
				// was assigned when its own creation call was replayed.
				key = sh.assigned[key-base]
			}
			if best < 0 || rec.t < bt || (rec.t == bt && key < bseq) {
				best, bt, bseq = s, rec.t, key
			}
		}
		if best < 0 {
			break
		}
		sh := pk.parts[best].par
		rec := sh.callers[sh.ci]
		sh.ci++
		for i := 0; i < rec.n; i++ {
			c := sh.calls[sh.ki]
			sh.ki++
			g := pk.seq
			pk.seq++
			sh.assigned = appendLog(sh.assigned, g)
			if c.ev == nil {
				m := sh.outbox[sh.oi]
				sh.oi++
				pk.scratch.deliveries = appendLog(pk.scratch.deliveries, delivery{to: m.to, t: m.t, seq: g, fn: m.fn, arg: m.arg})
			} else if c.ev.gen|1 == c.gen|1 {
				// Same incarnation, canceled or not: a dead event still
				// queued keeps its place in the order too.
				c.ev.seq = g
			}
		}
	}
	ds := pk.scratch.deliveries
	for i := range ds {
		d := &ds[i]
		pk.parts[d.to].deliverEvent(d.t, d.seq, d.fn, d.arg)
		d.fn, d.arg = nil, nil
	}
	pk.scratch.deliveries = ds[:0]
}

// Advance runs the partitioned simulation up to simulated time `until`
// without killing anything; every shard's Now() is `until` afterwards
// (unless Stop was requested). The worker pool stays up for the next
// call — Close it when done.
func (pk *ParKernel) Advance(until Time) error {
	if len(pk.parts) == 1 {
		return pk.parts[0].Advance(until)
	}
	if until < pk.Now() {
		return fmt.Errorf("sim: Advance(%g) before now (%g)", until, pk.Now())
	}
	pk.runWindows(until, true)
	pk.collect()
	if !pk.stopped {
		for _, k := range pk.parts {
			k.now = until
		}
	}
	return pk.err
}

// Run advances to `until`, then shuts every shard down (lowest shard
// first, each deterministically as the serial kernel would) and stops the
// workers. It returns the first model error, if any.
func (pk *ParKernel) Run(until Time) error {
	if len(pk.parts) == 1 {
		return pk.parts[0].Run(until)
	}
	err := pk.Advance(until)
	pk.shutdown()
	if err == nil {
		err = pk.err
	}
	return err
}

// AdvanceUntilIdle runs the partitioned simulation until no events remain
// anywhere, without shutting anything down: blocked processes and
// activities stay parked and the worker pool stays up, so a phased model
// can spawn its next phase and drive it with another Advance* call.
// Afterwards every shard's clock stands at the returned time (the latest
// shard time), giving the next phase a common start — shards that went
// idle early jump forward exactly as they would have slept through the
// remaining events. Close (or a final Run/RunUntilIdle) when done.
func (pk *ParKernel) AdvanceUntilIdle() (Time, error) {
	if len(pk.parts) == 1 {
		k := pk.parts[0]
		k.drain(0, false)
		return k.now, k.err
	}
	pk.runWindows(0, false)
	pk.collect()
	t := pk.Now()
	if !pk.stopped {
		for _, k := range pk.parts {
			if k.now < t {
				k.now = t
			}
		}
	}
	return t, pk.err
}

// RunUntilIdle advances until no events remain anywhere, returning the
// final simulated time (the latest shard time) and ErrDeadlock if blocked
// processes or activities remain on any shard. The worker pool is
// stopped.
func (pk *ParKernel) RunUntilIdle() (Time, error) {
	if len(pk.parts) == 1 {
		return pk.parts[0].RunUntilIdle()
	}
	pk.runWindows(0, false)
	pk.collect()
	if pk.err != nil {
		pk.shutdown()
		return pk.Now(), pk.err
	}
	blocked := 0
	for _, k := range pk.parts {
		blocked += k.live + k.actsBlocked
	}
	pk.shutdown()
	if pk.err != nil {
		return pk.Now(), pk.err
	}
	if blocked > 0 && !pk.stopped {
		return pk.Now(), fmt.Errorf("%w (%d blocked)", ErrDeadlock, blocked)
	}
	return pk.Now(), pk.err
}

// Stop requests that the run halt. From model code the request takes
// effect at the enclosing window's barrier: the stopping shard halts
// immediately, the others finish the window — so, unlike everything else
// about the partitioned kernel, post-Stop side effects may differ from
// the serial kernel's (which halts instantly).
func (pk *ParKernel) Stop() {
	pk.stopped = true
	for _, k := range pk.parts {
		k.stopped = true
	}
}

// Err returns the run's first recorded error.
func (pk *ParKernel) Err() error { return pk.err }

// shutdown kills shard processes and activities shard by shard in index
// order, then stops the workers.
func (pk *ParKernel) shutdown() {
	for _, k := range pk.parts {
		k.shutdown()
		if k.err != nil && pk.err == nil {
			pk.err = k.err
		}
	}
	pk.Close()
}

// InfLookahead is the lookahead for partitions that never communicate
// during a drain: the whole run becomes a single window.
func InfLookahead() Time { return math.Inf(1) }

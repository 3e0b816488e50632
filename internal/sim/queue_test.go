package sim

// Property tests of the kernel's event queues. The partitioned queue is
// checked against the single 4-ary heap for every partition count and
// assignment function tried; together with heap_test.go (single heap ==
// container/heap) that chains it to the reference ordering. The calendar
// queue, and partitioned queues over calendar parts, are checked against
// the container/heap reference directly, over operation streams that
// model a kernel's use (queueHarness) — randomized, pinned scenarios, and
// FuzzEventQueue.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rng"
)

// assigners is the partition-assignment corpus: by schedule order, by
// coarse time bucket (so whole partitions go quiet and the merge front
// skips them), hash-scattered, everything-in-one (degenerate), and
// out-of-range (exercises the fold-to-zero clamp).
func assigners(parts int) map[string]func(*event) int {
	return map[string]func(*event) int{
		"by-seq":  func(ev *event) int { return int(ev.seq) % parts },
		"by-time": func(ev *event) int { return int(ev.t) % parts },
		"hashed": func(ev *event) int {
			sm := rng.SplitMix64{State: ev.seq*2654435761 + uint64(ev.t)}
			return int(sm.Next() % uint64(parts))
		},
		"constant":     func(ev *event) int { return 0 },
		"out-of-range": func(ev *event) int { return int(ev.seq)%parts + parts },
	}
}

// TestPartitionedQueueMatchesSingleHeap: pushing one randomized schedule
// into the single heap and into partitioned queues of several widths and
// assignments, then draining, yields the identical pop sequence.
func TestPartitionedQueueMatchesSingleHeap(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 5, 8} {
		for name, assign := range assigners(parts) {
			t.Run(fmt.Sprintf("p%d/%s", parts, name), func(t *testing.T) {
				err := quick.Check(func(seed uint64, sizeRaw uint16) bool {
					n := 1 + int(sizeRaw%400)
					st := rng.New(seed)
					var ref eventHeap
					pq := newPartitionedQueue(parts, assign)
					for i := 0; i < n; i++ {
						// Coarse timestamps force plenty of (t, seq) ties.
						ev := &event{t: Time(st.Intn(16)), seq: uint64(i)}
						ref.push(ev)
						pq.push(ev)
					}
					if pq.size() != ref.size() {
						return false
					}
					for i := 0; i < n; i++ {
						if pq.peek() != ref.peek() {
							return false
						}
						if pq.pop() != ref.pop() {
							return false
						}
					}
					return pq.size() == 0 && pq.peek() == nil
				}, &quick.Config{MaxCount: 60})
				if err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestPartitionedQueueInterleaved: arbitrary interleavings of pushes and
// pops — the dispatch loop's shape, where firing events schedule new
// ones — agree with the single heap at every step.
func TestPartitionedQueueInterleaved(t *testing.T) {
	const parts = 4
	for name, assign := range assigners(parts) {
		t.Run(name, func(t *testing.T) {
			err := quick.Check(func(seed uint64, opsRaw uint16) bool {
				ops := 10 + int(opsRaw%1500)
				st := rng.New(seed)
				var ref eventHeap
				pq := newPartitionedQueue(parts, assign)
				now := Time(0)
				seq := uint64(0)
				for i := 0; i < ops; i++ {
					if pq.size() != ref.size() {
						return false
					}
					if ref.size() == 0 || st.Float64() < 0.55 {
						// Causal schedule: never before the virtual clock.
						ev := &event{t: now + Time(st.Intn(8)), seq: seq}
						seq++
						ref.push(ev)
						pq.push(ev)
						continue
					}
					want := ref.pop()
					if got := pq.pop(); got != want {
						return false
					}
					now = want.t
				}
				return true
			}, &quick.Config{MaxCount: 40})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEventQueueEmptyPopContract pins the empty-queue contract across
// both implementations: pop and peek on an empty queue return nil — the
// partitioned queue used to forward its front() == -1 sentinel straight
// into a slice index, turning "empty" into an opaque bounds panic — and
// draining to empty then popping again behaves the same way, with the
// size and the merge front intact afterwards.
func TestEventQueueEmptyPopContract(t *testing.T) {
	impls := map[string]func() eventQueue{
		"heap":     func() eventQueue { return &eventHeap{} },
		"calendar": func() eventQueue { return &calQueue{} },
		"partitioned": func() eventQueue {
			return newPartitionedQueue(3, func(ev *event) int { return int(ev.seq) % 3 })
		},
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			q := mk()
			if got := q.pop(); got != nil {
				t.Fatalf("pop on empty = %v, want nil", got)
			}
			if got := q.peek(); got != nil {
				t.Fatalf("peek on empty = %v, want nil", got)
			}
			// Fill, drain to empty, pop once more: still nil, not a panic,
			// and the queue stays usable.
			for i := 0; i < 7; i++ {
				q.push(&event{t: Time(i % 3), seq: uint64(i)})
			}
			for q.size() > 0 {
				if q.pop() == nil {
					t.Fatal("pop returned nil with events queued")
				}
			}
			if got := q.pop(); got != nil {
				t.Fatalf("pop after drain = %v, want nil", got)
			}
			if q.size() != 0 {
				t.Fatalf("size after empty pops = %d, want 0", q.size())
			}
			q.push(&event{t: 1, seq: 99})
			if ev := q.pop(); ev == nil || ev.seq != 99 {
				t.Fatalf("queue unusable after empty pops: got %v", ev)
			}
		})
	}
}

// TestEventQueueInterfaceConformance drives both implementations through
// the eventQueue interface itself, so the interface's contract — not
// just the concrete methods — is what the ordering proof covers.
func TestEventQueueInterfaceConformance(t *testing.T) {
	drain := func(q eventQueue, n int, seed uint64) []uint64 {
		st := rng.New(seed)
		for i := 0; i < n; i++ {
			q.push(&event{t: Time(st.Intn(12)), seq: uint64(i)})
		}
		var order []uint64
		for q.size() > 0 {
			p := q.peek()
			ev := q.pop()
			if p != ev {
				t.Fatal("peek disagrees with pop")
			}
			order = append(order, ev.seq)
		}
		return order
	}
	const n, seed = 300, 99
	single := drain(&eventHeap{}, n, seed)
	for name, q := range map[string]eventQueue{
		"calendar":    &calQueue{},
		"partitioned": newPartitionedQueue(3, func(ev *event) int { return int(ev.seq) % 3 }),
	} {
		got := drain(q, n, seed)
		if len(single) != n || len(got) != n {
			t.Fatalf("%s: drained %d and %d of %d", name, len(single), len(got), n)
		}
		for i := range single {
			if single[i] != got[i] {
				t.Fatalf("pop %d: single heap seq %d, %s seq %d", i, single[i], name, got[i])
			}
		}
	}
}

// --- calQueue against the reference ordering ------------------------------

// queueHarness runs one queue and the container/heap oracle through the
// same operation stream, decoded from bytes so the property tests and
// FuzzEventQueue share it. It models a kernel's use of its queue: causal
// pushes relative to a virtual clock that live pops advance, cross-shard
// deliveries whose seqs order before everything already queued, canceled
// events collected without moving the clock (as dispatch collects them
// past its bound), and the barrier's in-place, order-preserving seq
// re-stamp. Every step compares size and minimum; every pop compares the
// event popped.
type queueHarness struct {
	q        eventQueue
	ref      refHeap
	queued   []*event       // in no particular order
	pos      map[*event]int // index in queued
	now      Time
	seq, low uint64
}

// maxQueued caps the queue length a burst may build up, so an op stream
// cannot make the harness itself slow.
const maxQueued = 4096

func newQueueHarness(q eventQueue) *queueHarness {
	return &queueHarness{q: q, pos: map[*event]int{}, seq: 1 << 40, low: 1<<40 - 1}
}

func (d *queueHarness) push(t Time, seq uint64) {
	ev := &event{t: t, seq: seq}
	d.q.push(ev)
	heap.Push(&d.ref, ev)
	d.pos[ev] = len(d.queued)
	d.queued = append(d.queued, ev)
}

// next pushes at now+delay with the next schedule-order seq.
func (d *queueHarness) next(delay Time) {
	d.push(d.now+delay, d.seq)
	d.seq++
}

// pop pops both queues; a live event advances the clock.
func (d *queueHarness) pop(advance bool) error {
	got := d.q.pop()
	if len(d.ref) == 0 {
		if got != nil {
			return fmt.Errorf("pop on empty queue returned (t=%g seq=%d)", got.t, got.seq)
		}
		return nil
	}
	want := heap.Pop(&d.ref).(*event)
	if got != want {
		if got == nil {
			return fmt.Errorf("pop returned nil, want (t=%g seq=%d)", want.t, want.seq)
		}
		return fmt.Errorf("pop returned (t=%g seq=%d), want (t=%g seq=%d)", got.t, got.seq, want.t, want.seq)
	}
	i, last := d.pos[got], d.queued[len(d.queued)-1]
	d.queued[i], d.pos[last] = last, i
	d.queued = d.queued[:len(d.queued)-1]
	delete(d.pos, got)
	if advance && !got.dead() && got.t > d.now && !math.IsInf(got.t, 1) {
		d.now = got.t
	}
	return nil
}

// restamp renumbers every queued event in place by rank, spaced out, the
// way the barrier replaces provisional seqs with exact ones: the order
// among queued events is kept, the values and gaps all change.
func (d *queueHarness) restamp() {
	sort.Slice(d.queued, func(i, j int) bool { return d.queued[i].seq < d.queued[j].seq })
	const base = 1 << 40
	for i, ev := range d.queued {
		ev.seq = base + 3*uint64(i)
		d.pos[ev] = i
	}
	d.seq, d.low = base+3*uint64(len(d.queued)), base-1
}

// step applies one operation, chosen by op and parameterized by arg.
func (d *queueHarness) step(op, arg byte) error {
	switch op % 12 {
	case 0, 1, 2: // the common case: a short integer delay
		d.next(Time(arg % 11))
	case 3: // the parcel latency
		d.next(Time(500 + int(arg%3)))
	case 4: // a fractional delay
		d.next(Time(arg) / 37)
	case 5: // far beyond any ring span, or never
		if arg == 255 {
			d.next(math.Inf(1))
		} else {
			d.next(Time(1e5 * (1 + int(arg%4))))
		}
	case 6: // a delivery: its seq orders before every queued one
		d.push(d.now+Time(arg%4), d.low)
		d.low--
	case 7, 8, 9: // dispatch an event; 9 collects it without moving
		// the clock, as dispatch collects dead events past its bound
		if err := d.pop(op%12 != 9); err != nil {
			return err
		}
	case 10: // cancel a queued event
		if len(d.queued) > 0 {
			d.queued[int(arg)%len(d.queued)].gen |= 1
		}
	case 11: // a burst that grows the ring while events are queued, or
		// the barrier's monotone re-stamp of every queued seq
		if arg&1 == 0 && len(d.queued) < maxQueued {
			for i := 0; i < 150; i++ {
				d.next(Time((i * 7) % 700))
			}
		} else {
			d.restamp()
		}
	}
	if d.q.size() != len(d.ref) {
		return fmt.Errorf("size %d, reference holds %d", d.q.size(), len(d.ref))
	}
	if got := d.q.peek(); len(d.ref) == 0 && got != nil || len(d.ref) > 0 && got != d.ref[0] {
		return fmt.Errorf("peek disagrees with the reference minimum")
	}
	return nil
}

// run applies ops as (op, arg) byte pairs, then drains both queues.
func (d *queueHarness) run(ops []byte) error {
	for i := 0; i+1 < len(ops); i += 2 {
		if err := d.step(ops[i], ops[i+1]); err != nil {
			return fmt.Errorf("op %d (%d, %d): %w", i/2, ops[i], ops[i+1], err)
		}
	}
	for len(d.ref) > 0 {
		if err := d.pop(true); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	return d.pop(true) // empty: both must say so
}

// queueImpl names a queue constructor checked against the oracle.
type queueImpl struct {
	name string
	mk   func() eventQueue
}

// queueImpls are the queues checked against the oracle: the kernel's
// calendar queue, and partitioned queues over calendar parts. A slice,
// not a map: the fuzzer needs each input to run the same code every time.
var queueImpls = []queueImpl{
	{"calendar", func() eventQueue { return new(calQueue) }},
	{"partitioned-3", func() eventQueue {
		return newPartitionedQueue(3, func(ev *event) int { return int(ev.seq % 3) })
	}},
	{"partitioned-by-time", func() eventQueue {
		return newPartitionedQueue(4, func(ev *event) int { return int(uint64(ev.t) % 4) })
	}},
}

// TestCalQueueMatchesReference: random operation streams — weighted like
// the fuzz target's byte stream but longer — pop the reference order on
// every queue implementation.
func TestCalQueueMatchesReference(t *testing.T) {
	for _, impl := range queueImpls {
		mk := impl.mk
		t.Run(impl.name, func(t *testing.T) {
			err := quick.Check(func(seed uint64, lenRaw uint16) bool {
				st := rng.New(seed)
				ops := make([]byte, 2*(50+int(lenRaw%3000)))
				for i := range ops {
					ops[i] = byte(st.Intn(256))
				}
				if err := newQueueHarness(mk()).run(ops); err != nil {
					t.Log(err)
					return false
				}
				return true
			}, &quick.Config{MaxCount: 40})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCalQueueScenarios pins the cases the ring's bookkeeping hinges on,
// each as an explicit op stream.
func TestCalQueueScenarios(t *testing.T) {
	rep := func(n int, ops ...byte) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, ops...)
		}
		return out
	}
	cases := map[string][]byte{
		// Integer delays, many ties, a standing queue past ringFrom.
		"coarse-integer": append(rep(200, 0, 3, 1, 0, 2, 7), rep(300, 7, 0, 0, 5, 8, 0)...),
		// Fractional times: out-of-order appends within a bucket.
		"fractional": append(rep(100, 4, 200, 4, 17, 4, 90), rep(400, 4, 33, 7, 0)...),
		// Latencies and far events beyond the span, then a long drain.
		"beyond-span": append(rep(100, 3, 0, 5, 1, 0, 9, 5, 255), rep(300, 7, 0, 0, 1)...),
		// Ring growth mid-run with events in every bucket.
		"growth": append(rep(3, 11, 0, 7, 0, 7, 0), rep(5, 11, 0, 0, 4, 9, 0, 7, 0)...),
		// Deliveries whose seqs order before queued events at equal t.
		"deliveries": rep(300, 0, 2, 6, 2, 6, 0, 7, 0),
		// Dead events collected past the clock, then earlier pushes that
		// land behind the ring's span.
		"dead-past-bound": append(rep(60, 0, 3, 3, 0), rep(80, 10, 7, 9, 0, 9, 0, 0, 1, 0, 0, 7, 0)...),
		// The barrier's in-place re-stamp between pushes and pops.
		"restamp": rep(120, 0, 1, 6, 0, 11, 1, 7, 0, 0, 5),
	}
	for name, ops := range cases {
		for _, impl := range queueImpls {
			if err := newQueueHarness(impl.mk()).run(ops); err != nil {
				t.Errorf("%s on %s: %v", name, impl.name, err)
			}
		}
	}
}

// TestEventSize guards the 80-byte event: the queue link is paid for by
// folding the canceled flag into gen, and a bigger struct moves to the
// 96-byte size class, growing every model's event memory by a fifth.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 80 {
		t.Fatalf("sizeof(event) = %d, want 80", got)
	}
}

// FuzzEventQueue: byte-driven push/pop/cancel/re-stamp streams (see
// queueHarness.step) pop the reference order on every queue.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 7, 0, 3, 1, 7, 0, 7, 0})
	f.Add([]byte{4, 200, 4, 17, 4, 90, 7, 0, 7, 0, 4, 1, 7, 0})
	f.Add([]byte{11, 0, 7, 0, 9, 0, 10, 5, 11, 1, 6, 2, 7, 0})
	f.Add([]byte{5, 255, 5, 0, 3, 2, 0, 0, 7, 0, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, impl := range queueImpls {
			if err := newQueueHarness(impl.mk()).run(ops); err != nil {
				t.Fatalf("%s: %v", impl.name, err)
			}
		}
	})
}

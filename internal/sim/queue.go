package sim

// Event ordering. The kernel pops events in strictly ascending (t, seq)
// order — seq is the unique schedule counter, so (t, seq) is a strict
// total order and every queue below pops one deterministic sequence.
//
// calQueue is the kernel's queue: a calendar ring (Brown, CACM 31(10),
// 1988) of FIFO buckets keyed by floor(t), plus eventHeap, a 4-ary heap,
// as the overflow for everything the ring cannot take in order. The
// models schedule at integer times with a few dozen distinct delays, so
// nearly every push lands at the tail of its bucket already in (t, seq)
// order and nearly every pop takes a bucket head: both O(1), where the
// heap paid a log-depth sift per event. partitionedQueue spans one
// calQueue per shard of a partitioned run (parallel.go) and merges their
// fronts. The property tests in heap_test.go and queue_test.go check all
// three against the container/heap reference ordering.

import "math/bits"

// eventQueue is the event-ordering contract: push any number of events,
// pop them in strictly ascending (t, seq) order. pop on an empty queue
// returns nil — explicitly, in every implementation (the contract test
// in queue_test.go pins them to the same answer). peek returns the next
// event without removing it, nil when empty.
type eventQueue interface {
	push(*event)
	pop() *event
	peek() *event
	size() int
}

var (
	_ eventQueue = (*eventHeap)(nil)
	_ eventQueue = (*calQueue)(nil)
	_ eventQueue = (*partitionedQueue)(nil)
)

// eventBefore reports whether a orders strictly before b.
func eventBefore(a, b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap on (t, seq) specialized to *event: the
// comparisons are inlined and nothing is boxed, unlike container/heap's
// interface-driven sift. The wider fan-out halves the tree depth of the
// binary heap. It is calQueue's overflow: the events the ring cannot
// hold in order.
type eventHeap []*event

// push inserts ev, sifting up with inlined (t, seq) comparisons.
func (q *eventHeap) push(ev *event) {
	a := append(*q, ev)
	i := len(a) - 1
	t, seq := ev.t, ev.seq
	for i > 0 {
		pi := (i - 1) >> 2
		p := a[pi]
		if p.t < t || (p.t == t && p.seq < seq) {
			break
		}
		a[i] = p
		i = pi
	}
	a[i] = ev
	*q = a
}

// pop removes and returns the minimum event, nil when the heap is empty.
func (q *eventHeap) pop() *event {
	a := *q
	n := len(a) - 1
	if n < 0 {
		return nil
	}
	top := a[0]
	last := a[n]
	a[n] = nil
	a = a[:n]
	*q = a
	if n > 0 {
		i := 0
		t, seq := last.t, last.seq
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m, mc := c, a[c]
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				cj := a[j]
				if cj.t < mc.t || (cj.t == mc.t && cj.seq < mc.seq) {
					m, mc = j, cj
				}
			}
			if t < mc.t || (t == mc.t && seq < mc.seq) {
				break
			}
			a[i] = mc
			i = m
		}
		a[i] = last
	}
	return top
}

// peek returns the minimum event without removing it, nil when empty.
func (q *eventHeap) peek() *event {
	if len(*q) == 0 {
		return nil
	}
	return (*q)[0]
}

// size returns the number of queued events.
func (q *eventHeap) size() int { return len(*q) }

const (
	// ringFrom is the queue length that allocates the ring. Below it the
	// queue is its overflow heap alone, which at that size costs a couple
	// of comparisons per operation and nothing to create. The first ring
	// has ringMin buckets; it doubles whenever the queue holds more events
	// than it has buckets, so its span in time units tracks the queued-
	// event count, up to ringMax buckets.
	ringFrom = 32
	ringMin  = 64
	ringMax  = 1 << 16
	// maxKey bounds the bucket keys: times at or beyond it never enter the
	// ring, so every key converts exactly between float64 and int64.
	maxKey = 1 << 52
)

// calQueue is the kernel's event queue: a calendar ring of FIFO buckets
// over the time span [lo, hi), one bucket per integer key floor(t), plus
// an overflow heap. A bucket is a circular list through event.next in
// ascending (t, seq) order, held by its tail (whose next is the head), so
// a bucket costs one word and both ends are O(1). A push appends to its
// bucket's tail when it orders after the tail and its key lies in the
// span; anything else — out of span, non-finite, behind the span's start,
// or out of order within its bucket — goes to the overflow. The minimum is the smaller of the first
// non-empty bucket's head (found through an occupancy bitmap) and the
// heap top, so the ordering never depends on which side holds an event.
// The zero value is an empty queue.
type calQueue struct {
	over eventHeap
	ring []*event // bucket tails; len 0 or a power of two

	// Once the ring exists, front is the minimum (nil when empty), kept
	// exact by push and recomputed by pop, so peek — the dispatch loop's
	// test of the next event against its bound — is one load.
	front *event
	nring int // events in the ring

	occ []uint64 // occupancy bitmap: bit i set iff ring[i] is non-empty
	cur int64    // key of the span's first bucket; only pops advance it
	lo  Time     // float64(cur)
	hi  Time     // float64(cur + len(ring))
}

// push inserts ev.
func (q *calQueue) push(ev *event) {
	if q.ring == nil && len(q.over) < ringFrom {
		q.over.push(ev)
		return
	}
	q.pushRing(ev)
}

// pushRing is push for a queue that has its ring or is about to get it.
func (q *calQueue) pushRing(ev *event) {
	if q.ring == nil {
		q.front = q.over[0] // switching over: front starts being kept
	}
	if f := q.front; f == nil || eventBefore(ev, f) {
		q.front = ev
	}
	if q.size() >= len(q.ring) && len(q.ring) < ringMax {
		q.grow()
	}
	if t := ev.t; t >= q.lo && t < q.hi {
		i := int(int64(t)) & (len(q.ring) - 1)
		if tl := q.ring[i]; tl == nil {
			ev.next = ev
			q.ring[i] = ev
			q.occ[i>>6] |= 1 << (uint(i) & 63)
			q.nring++
			return
		} else if eventBefore(tl, ev) {
			ev.next, tl.next = tl.next, ev
			q.ring[i] = ev
			q.nring++
			return
		}
	}
	q.over.push(ev)
}

// peek returns the minimum event without removing it, nil when empty.
// Both branches are a load or two, and peek inlines.
func (q *calQueue) peek() *event {
	if q.ring == nil {
		return q.over.peek()
	}
	return q.front
}

// pop removes and returns the minimum event, nil when the queue is empty.
func (q *calQueue) pop() *event {
	if q.ring == nil {
		return q.over.pop()
	}
	return q.popRing()
}

// popRing is pop for a queue that has its ring.
func (q *calQueue) popRing() *event {
	ev := q.front
	if ev == nil {
		return nil
	}
	// ev is the minimum, so no ring event has a key below floor(ev.t): the
	// span may start there. Pops are the only thing that moves it — ev.t
	// may lie ahead of the kernel's clock (dead events are collected past
	// the drain bound), and later pushes behind the span simply overflow.
	if len(q.over) > 0 && q.over[0] == ev {
		q.over.pop()
		if t := ev.t; t >= q.lo+1 && t < maxKey {
			q.setStart(int64(t))
		}
	} else {
		k := int64(ev.t)
		i := int(k) & (len(q.ring) - 1)
		h := ev.next // ev is the head: the new head, or ev itself if alone
		ev.next = nil
		q.nring--
		if k != q.cur {
			q.setStart(k)
		}
		if tl := q.ring[i]; tl == ev {
			q.ring[i] = nil
			q.occ[i>>6] &^= 1 << (uint(i) & 63)
		} else {
			tl.next = h
			if len(q.over) == 0 {
				// The rest of ev's bucket precedes every other ring event.
				q.front = h
				return ev
			}
		}
	}
	q.front = nil
	if q.size() > 0 {
		q.findFront()
	}
	return ev
}

// setStart moves the span to start at key k.
func (q *calQueue) setStart(k int64) {
	q.cur = k
	q.lo = Time(k)
	q.hi = Time(k + int64(len(q.ring)))
}

// findFront recomputes the minimum of a non-empty queue.
func (q *calQueue) findFront() {
	var ev *event
	if q.nring > 0 {
		ev = q.ring[q.firstBucket()].next
	}
	if len(q.over) > 0 {
		if o := q.over[0]; ev == nil || eventBefore(o, ev) {
			ev = o
		}
	}
	q.front = ev
}

// firstBucket returns the index of the first non-empty bucket in key
// order, scanning the bitmap circularly from the span's first bucket.
// The ring must hold at least one event.
func (q *calQueue) firstBucket() int {
	i := int(q.cur) & (len(q.ring) - 1)
	w := i >> 6
	if b := q.occ[w] >> (uint(i) & 63); b != 0 {
		return i + bits.TrailingZeros64(b)
	}
	for {
		w = (w + 1) & (len(q.occ) - 1)
		if b := q.occ[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
}

// size returns the number of queued events.
func (q *calQueue) size() int { return q.nring + len(q.over) }

// grow doubles the ring, or allocates the first one, and rehashes it. A
// bucket holds exactly one key, so rehashing moves whole lists.
func (q *calQueue) grow() {
	size := 2 * len(q.ring)
	if size < ringMin {
		size = ringMin
		// The first ring's span starts at the minimum: every queued event
		// is in the overflow yet, at or after the kernel's clock.
		if t := q.front.t; t >= 0 && t < maxKey {
			q.cur = int64(t)
		}
	}
	ring := make([]*event, size)
	occ := make([]uint64, size/64)
	for w, word := range q.occ {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			j := int(int64(q.ring[i].t)) & (size - 1)
			ring[j] = q.ring[i]
			occ[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	q.ring, q.occ = ring, occ
	q.setStart(q.cur)
}

// partitionedQueue distributes events over per-partition calQueues by an
// assignment function (by processor, by node, by shard — any total
// function of the event) and merges at pop time by scanning the
// partition fronts. Pushes touch only the owning partition — the
// property the partitioned kernel needs so concurrent shards can
// schedule without contending on one queue. The parts are pointers so a
// ParKernel's can be its shard kernels' own queues, which each shard
// pushes to directly.
type partitionedQueue struct {
	parts  []*calQueue
	assign func(*event) int
	n      int
}

// newPartitionedQueue creates a queue of the given partition count.
// Assignment values outside [0, parts) are folded into partition 0 so
// the queue stays total over every event.
func newPartitionedQueue(parts int, assign func(*event) int) *partitionedQueue {
	if parts < 1 {
		parts = 1
	}
	q := &partitionedQueue{parts: make([]*calQueue, parts), assign: assign}
	for i := range q.parts {
		q.parts[i] = new(calQueue)
	}
	return q
}

func (q *partitionedQueue) push(ev *event) {
	p := q.assign(ev)
	if p < 0 || p >= len(q.parts) {
		p = 0
	}
	q.parts[p].push(ev)
	q.n++
}

// front returns the index of the partition holding the global (t, seq)
// minimum, -1 when every partition is empty.
func (q *partitionedQueue) front() int {
	best := -1
	var bev *event
	for i := range q.parts {
		ev := q.parts[i].peek()
		if ev != nil && (best < 0 || eventBefore(ev, bev)) {
			best, bev = i, ev
		}
	}
	return best
}

func (q *partitionedQueue) pop() *event {
	i := q.front()
	if i < 0 {
		return nil
	}
	q.n--
	return q.parts[i].pop()
}

func (q *partitionedQueue) peek() *event {
	i := q.front()
	if i < 0 {
		return nil
	}
	return q.parts[i].peek()
}

func (q *partitionedQueue) size() int { return q.n }

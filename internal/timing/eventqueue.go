package timing

// Event is a callback scheduled to run at a particular simulation time.
// Events are owned and recycled by their EventQueue: once an event has
// fired or been cancelled the queue may reuse its storage for a later
// Schedule, so callers must not retain *Event across those points. Use
// the EventRef returned by Schedule, which stays safe to Cancel forever.
type Event struct {
	At Time
	Do func(now Time)

	seq int64 // insertion order; ties at the same At run FIFO
	idx int   // heap index, -1 when not queued
	far bool  // queued on the far heap (see EventQueue)
}

// EventRef is a cancellation handle for a scheduled event. The zero
// EventRef refers to nothing; cancelling it is a no-op. A ref whose
// event already fired or was cancelled is detected by its sequence
// number (sequence numbers are never reused), so stale refs are always
// safe, even after the queue recycles the event's storage.
type EventRef struct {
	ev  *Event
	seq int64
}

// Valid reports whether the ref was obtained from Schedule (it may
// still refer to an already-fired event).
func (r EventRef) Valid() bool { return r.ev != nil }

// Seq returns the event's sequence number (-1 for the zero ref). Within
// one queue lifetime, sequence numbers totally order events scheduled
// for the same instant, which is what state snapshots record to rebuild
// the dispatch order on restore.
func (r EventRef) Seq() int64 {
	if r.ev == nil {
		return -1
	}
	return r.seq
}

// EventQueue is a deterministic priority queue of events. Events
// scheduled for the same instant fire in the order they were scheduled,
// which keeps simulations reproducible regardless of map iteration or
// goroutine scheduling. One queue drives a whole simulation: every
// component schedules onto it and a single goroutine dispatches.
//
// Pending events live in two 4-ary heaps. An event due at least
// farHorizon past Now when it is scheduled goes on the far heap, every
// other event on the near heap; dispatch takes the earlier of the two
// heads by (At, seq), so the split changes no dispatch order. Events
// never migrate between the heaps. The point is sift depth: a running
// simulation keeps a few dozen near events (completions, core steps,
// channel wakeups, all within a few microseconds) next to well over a
// thousand dormant retention, decay and patrol timers that sit
// milliseconds out, and only the near heap is touched on almost every
// pop.
//
// Fired and cancelled events are kept on an internal free list and
// reused by later Schedule calls, so a steady-state simulation
// schedules millions of events without allocating.
type EventQueue struct {
	near eventHeap
	far  eventHeap
	free []*Event
	now  Time  // At of the most recently dispatched event
	seq  int64 // next sequence number
}

// farHorizon splits the two heaps. Near work (bank transactions, bus
// transfers, core steps, wakeups) is scheduled at most a few
// microseconds ahead; retention, decay and patrol timers at least a
// millisecond ahead. Any value between the two classes yields the same
// split.
const farHorizon = 100 * Microsecond

// NewEventQueue returns an empty queue whose clock starts at 0.
func NewEventQueue() *EventQueue {
	return &EventQueue{}
}

// Now returns the current simulation time: the At of the most recently
// dispatched event.
func (q *EventQueue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.near) + len(q.far) }

// Schedule enqueues fn to run at time at. Scheduling in the past (before
// Now) is a programming error and panics, since it would silently reorder
// causality.
func (q *EventQueue) Schedule(at Time, fn func(now Time)) EventRef {
	if at < q.now {
		panic("timing: event scheduled in the past")
	}
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.At, ev.Do, ev.seq = at, fn, q.seq
	q.seq++
	if ev.far = at-q.now >= farHorizon; ev.far {
		q.far.push(ev)
	} else {
		q.near.push(ev)
	}
	return EventRef{ev: ev, seq: ev.seq}
}

// Reset discards every pending event, restarts the sequence counter and
// sets the clock to now. It is the first step of restoring a state
// snapshot: the restored components re-schedule their pending events
// onto the emptied queue (see Pending).
func (q *EventQueue) Reset(now Time) {
	q.discard(&q.near)
	q.discard(&q.far)
	q.seq = 0
	q.now = now
}

// discard recycles every event of h and empties it.
func (q *EventQueue) discard(h *eventHeap) {
	for i, ev := range *h {
		q.recycle(ev)
		(*h)[i] = nil
	}
	*h = (*h)[:0]
}

// After enqueues fn to run d after the current time.
func (q *EventQueue) After(d Time, fn func(now Time)) EventRef {
	return q.Schedule(q.now+d, fn)
}

// Cancel removes a pending event. Cancelling a zero ref, or a ref whose
// event already fired or was already cancelled, is a no-op.
func (q *EventQueue) Cancel(ref EventRef) {
	ev := ref.ev
	if ev == nil || ev.seq != ref.seq || ev.idx < 0 {
		return
	}
	if ev.far {
		q.far.remove(ev.idx)
	} else {
		q.near.remove(ev.idx)
	}
	q.recycle(ev)
}

// recycle returns a dequeued event to the free list.
func (q *EventQueue) recycle(ev *Event) {
	ev.idx = -1
	ev.Do = nil // release the closure for GC
	q.free = append(q.free, ev)
}

// head returns the heap holding the earliest pending event, or nil
// when both heaps are empty.
func (q *EventQueue) head() *eventHeap {
	if len(q.far) == 0 {
		if len(q.near) == 0 {
			return nil
		}
		return &q.near
	}
	if len(q.near) == 0 || before(q.far[0], q.near[0]) {
		return &q.far
	}
	return &q.near
}

// PeekTime returns the time of the earliest pending event, or Forever
// if the queue is idle.
func (q *EventQueue) PeekTime() Time {
	if h := q.head(); h != nil {
		return (*h)[0].At
	}
	return Forever
}

// Step dispatches the earliest pending heap event, advancing the clock
// to its time. It reports whether an event was dispatched.
func (q *EventQueue) Step() bool {
	h := q.head()
	if h == nil {
		return false
	}
	q.dispatch(h)
	return true
}

// dispatch pops the head of h and runs it.
func (q *EventQueue) dispatch(h *eventHeap) {
	ev := h.pop()
	q.now = ev.At
	do := ev.Do
	// Recycle before dispatch: the callback may Schedule, and reusing
	// this event's storage there is safe because the caller's EventRef
	// sequence number no longer matches.
	q.recycle(ev)
	do(q.now)
}

// RunUntil dispatches events in order until the next event would be after
// deadline or the queue drains, then advances the clock to deadline.
func (q *EventQueue) RunUntil(deadline Time) {
	for h := q.head(); h != nil && (*h)[0].At <= deadline; h = q.head() {
		q.dispatch(h)
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// Drain dispatches events until none remain. Intended for tests; a
// simulation with periodic timers never drains.
func (q *EventQueue) Drain(maxEvents int) int {
	n := 0
	for n < maxEvents && q.Step() {
		n++
	}
	return n
}

// eventHeap is a 4-ary min-heap of events ordered by (At, seq). The
// arity halves the depth of a binary heap, so the pop-heavy dispatch
// loop does fewer cache-missing levels per sift; it changes only the
// internal shape — pops still deliver strict (At, seq) order. Each
// event's idx tracks its slot for O(log n) removal.
type eventHeap []*Event

// before orders events by time, then schedule order.
func before(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *Event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.idx)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	s := *h
	ev := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = nil
	*h = s[:last]
	if last > 0 {
		s[:last].siftDown(0)
	}
	return ev
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	s := *h
	last := len(s) - 1
	s[i] = s[last]
	s[i].idx = i
	s[last] = nil
	*h = s[:last]
	if i < last && !h.siftDown(i) {
		h.siftUp(i)
	}
}

// siftUp restores the heap property from index i toward the root.
func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !before(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

// siftDown restores the heap property from index i toward the leaves,
// reporting whether the event moved.
func (h eventHeap) siftDown(i int) bool {
	n := len(h)
	ev := h[i]
	start := i
	for {
		child := 4*i + 1
		if child >= n {
			break
		}
		end := child + 4
		if end > n {
			end = n
		}
		for c := child + 1; c < end; c++ {
			if before(h[c], h[child]) {
				child = c
			}
		}
		if !before(h[child], ev) {
			break
		}
		h[i] = h[child]
		h[i].idx = i
		i = child
	}
	h[i] = ev
	ev.idx = i
	return i > start
}

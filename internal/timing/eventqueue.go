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

// clock is the (time, sequence) source of one simulation. A standalone
// EventQueue owns its clock; the queues of a ShardSet share one, so a
// component scheduling onto any shard sees the same global Now and every
// event across all shards draws from one sequence space — which is what
// makes the merged dispatch order of a sharded run identical to the
// serial order (ties at the same instant still resolve by schedule
// order, regardless of which shard holds the event).
type clock struct {
	now Time
	seq int64
}

// EventQueue is a deterministic priority queue of events. Events
// scheduled for the same instant fire in the order they were scheduled,
// which keeps simulations reproducible regardless of map iteration or
// goroutine scheduling (event dispatch is serialized even under a
// ShardSet).
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
	ck   *clock

	// timers are coarse one-shot deadline slots (see NewTimer), cheaper
	// than heap events for the re-arm-heavy wakeups of the sharded
	// engine. Only ShardSet-driven queues use them; a standalone queue's
	// timer slice stays nil and Step ignores the field entirely.
	timers []*Timer

	// set/shard back-reference when the queue belongs to a ShardSet;
	// Schedule uses it to tighten the executing batch's ordering bound
	// when work lands on another shard (see ShardSet.limAt).
	set   *ShardSet
	shard int

	// dirty is set by every mutation that can move the queue's earliest
	// work (Schedule, Cancel, dispatch, timer arm/disarm, Reset). The
	// ShardSet barrier uses it to recompute head keys only for queues
	// that actually changed since the previous epoch.
	dirty bool
}

// farHorizon splits the two heaps. Near work (bank transactions, bus
// transfers, core steps, wakeups) is scheduled at most a few
// microseconds ahead; retention, decay and patrol timers at least a
// millisecond ahead. Any value between the two classes yields the same
// split.
const farHorizon = 100 * Microsecond

// NewEventQueue returns an empty queue whose clock starts at 0.
func NewEventQueue() *EventQueue {
	return &EventQueue{ck: &clock{}}
}

// Now returns the current simulation time: the At of the most recently
// dispatched event.
func (q *EventQueue) Now() Time { return q.ck.now }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.near) + len(q.far) }

// Schedule enqueues fn to run at time at. Scheduling in the past (before
// Now) is a programming error and panics, since it would silently reorder
// causality.
func (q *EventQueue) Schedule(at Time, fn func(now Time)) EventRef {
	if at < q.ck.now {
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
	ev.At, ev.Do, ev.seq = at, fn, q.ck.seq
	q.ck.seq++
	if ev.far = at-q.ck.now >= farHorizon; ev.far {
		q.far.push(ev)
	} else {
		q.near.push(ev)
	}
	q.dirty = true
	if s := q.set; s != nil && s.active >= 0 && q.shard != s.active &&
		(at < s.limAt || (at == s.limAt && ev.seq < s.limSeq)) {
		// Cross-shard traffic now precedes the executing batch's
		// ordering bound: tighten the bound so the batch stops before
		// running past it. The batch keeps dispatching its earlier
		// work — nothing is aborted or redone.
		s.limAt, s.limSeq = at, ev.seq
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
	for _, t := range q.timers {
		t.At = Forever
	}
	q.dirty = true
	q.ck.seq = 0
	q.ck.now = now
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
	return q.Schedule(q.ck.now+d, fn)
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
	q.dirty = true
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

// PeekTime returns the time of the earliest pending event or armed
// timer, or Forever if the queue is idle.
func (q *EventQueue) PeekTime() Time {
	at, _ := q.headKey()
	return at
}

// headKey returns the (time, seq) dispatch key of the queue's earliest
// work. Armed timers carry real sequence numbers (assigned at Arm), so
// they interleave with heap events — here and across shards in a merge —
// exactly as the equivalent Scheduled event would.
func (q *EventQueue) headKey() (Time, int64) {
	at, seq := Forever, int64(1<<62)
	if h := q.head(); h != nil {
		at, seq = (*h)[0].At, (*h)[0].seq
	}
	for _, t := range q.timers {
		if t.At < at || (t.At == at && t.seq < seq) {
			at, seq = t.At, t.seq
		}
	}
	return at, seq
}

// runWindow dispatches the queue's work in (time, seq) order while it
// stays before windowEnd (the deadline clip) and ahead of the batch's
// ordering bound — the earliest (time, seq) owned by any other shard,
// re-read every iteration because the batch's own cross-shard
// scheduling tightens it in place. It is the batch loop of ShardSet;
// living here lets each iteration peek the heap heads and timer slots
// exactly once instead of once in headKey and again in dispatchKey.
func (q *EventQueue) runWindow(s *ShardSet, windowEnd Time) {
	for {
		at, seq := Forever, int64(1<<62)
		h := q.head()
		if h != nil {
			at, seq = (*h)[0].At, (*h)[0].seq
		}
		var timer *Timer
		for _, t := range q.timers {
			if t.At < at || (t.At == at && t.seq < seq) {
				at, seq = t.At, t.seq
				timer = t
			}
		}
		if at >= windowEnd || at > s.limAt || (at == s.limAt && seq > s.limSeq) {
			return
		}
		if timer != nil {
			timer.At = Forever
			q.dirty = true
			q.ck.now = at
			timer.fn(at)
		} else {
			q.dispatch(h)
		}
	}
}

// Step dispatches the earliest pending heap event, advancing the clock
// to its time. It reports whether an event was dispatched. (Timer slots
// are dispatched by ShardSet via headKey/stepHead, never by Step.)
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
	q.dirty = true
	q.ck.now = ev.At
	do := ev.Do
	// Recycle before dispatch: the callback may Schedule, and reusing
	// this event's storage there is safe because the caller's EventRef
	// sequence number no longer matches.
	q.recycle(ev)
	do(q.ck.now)
}

// RunUntil dispatches events in order until the next event would be after
// deadline or the queue drains, then advances the clock to deadline.
func (q *EventQueue) RunUntil(deadline Time) {
	for h := q.head(); h != nil && (*h)[0].At <= deadline; h = q.head() {
		q.dispatch(h)
	}
	if q.ck.now < deadline {
		q.ck.now = deadline
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

// Timer is a one-shot deadline slot on an EventQueue: a single mutable
// (At, seq, fn) triple that fires at most once per arming and re-arms
// with two stores instead of a Cancel+Schedule heap round-trip. It
// exists for the sharded engine's channel wakeups, which are re-aimed on
// nearly every kick; as heap events that churn dominates sift cost.
// Arming draws a sequence number from the queue's clock exactly like
// Schedule, so an armed timer interleaves with same-instant heap events
// precisely as the event it replaces would have — replacing an event
// with a timer changes no dispatch order. A disarmed timer holds
// At == Forever. Timers are not part of Len/Drain; they are dispatched
// only by a ShardSet (stepHead).
type Timer struct {
	At  Time
	seq int64
	fn  func(now Time)
	q   *EventQueue // owning queue, for barrier dirty-marking
}

// NewTimer registers a timer slot on the queue, initially disarmed. The
// number of slots per queue is expected to stay small (one per memory
// channel mapped to the shard); every PeekTime/headKey scans them.
func (q *EventQueue) NewTimer(fn func(now Time)) *Timer {
	t := &Timer{At: Forever, fn: fn, q: q}
	q.timers = append(q.timers, t)
	return t
}

// Arm sets the timer to fire at `at`, replacing any earlier deadline and
// assigning a fresh sequence number (the ordering position a Schedule
// call at this point would get). Arming in the past is a programming
// error, as with Schedule.
func (t *Timer) Arm(q *EventQueue, at Time) {
	if at < q.ck.now {
		panic("timing: timer armed in the past")
	}
	t.At = at
	t.seq = q.ck.seq
	q.ck.seq++
	q.dirty = true
	if s := q.set; s != nil && s.active >= 0 && q.shard != s.active &&
		(at < s.limAt || (at == s.limAt && t.seq < s.limSeq)) {
		s.limAt, s.limSeq = at, t.seq // cross-shard deadline tightens the batch bound
	}
}

// Seq returns the sequence number assigned at the last Arm (snapshots
// record it alongside At to rebuild dispatch order on restore).
func (t *Timer) Seq() int64 { return t.seq }

// Disarm clears the timer.
func (t *Timer) Disarm() {
	t.At = Forever
	t.q.dirty = true
}

// Armed reports whether the timer holds a live deadline.
func (t *Timer) Armed() bool { return t.At != Forever }

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

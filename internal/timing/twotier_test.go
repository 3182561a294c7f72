package timing

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refQueue is the reference model of an EventQueue: one list of pending
// (At, seq, id) entries kept sorted by (At, seq), dispatched from the
// front.
type refQueue struct {
	now     Time
	seq     int64
	pending []refEvent
	log     []string
}

type refEvent struct {
	at  Time
	seq int64
	id  int
}

func (m *refQueue) schedule(at Time, id int) int64 {
	s := m.seq
	m.seq++
	i := sort.Search(len(m.pending), func(i int) bool {
		e := m.pending[i]
		return e.at > at || (e.at == at && e.seq > s)
	})
	m.pending = append(m.pending, refEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = refEvent{at, s, id}
	return s
}

func (m *refQueue) cancel(seq int64) {
	for i, e := range m.pending {
		if e.seq == seq {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

// pop removes the earliest pending event.
func (m *refQueue) pop() refEvent {
	e := m.pending[0]
	m.pending = m.pending[1:]
	return e
}

// twoTierScript generates one random operation stream. Times cluster
// around Now+farHorizon so events land on both heaps, and are often
// copied from already-pending events so exact At ties between an early
// far-heap event and a later near-heap event are common.
type twoTierScript struct {
	rng     *rand.Rand
	nextID  int
	pendAts []Time
}

func (g *twoTierScript) pickTime(now Time) Time {
	switch g.rng.Intn(4) {
	case 0: // reuse a pending instant: exact ties, possibly across heaps
		if n := len(g.pendAts); n > 0 {
			if at := g.pendAts[g.rng.Intn(n)]; at >= now {
				return at
			}
		}
		return now
	case 1: // straddle the horizon by a few picoseconds
		return now + farHorizon + Time(g.rng.Intn(5)-2)
	case 2: // near work
		return now + Time(g.rng.Intn(2000))
	default: // far work, up to a few horizons out
		return now + Time(g.rng.Int63n(int64(4*farHorizon)))
	}
}

// childDelay is the follow-up a dispatched event schedules (or not),
// identical in the queue and the model.
func childDelay(id int) (Time, bool) {
	switch id % 5 {
	case 0:
		return farHorizon - 1, true
	case 1:
		return farHorizon, true
	case 2:
		return 0, true
	}
	return 0, false
}

// twoTierRun drives one operation stream against q and the reference
// model in lockstep, and fails on the first divergence.
func twoTierRun(t *testing.T, seed int64, q *EventQueue) {
	t.Helper()
	g := &twoTierScript{rng: rand.New(rand.NewSource(seed))}
	m := &refQueue{}
	var log []string
	type live struct {
		ref EventRef
		seq int64
	}
	var refs []live

	var event func(id int) func(Time)
	event = func(id int) func(Time) {
		return func(at Time) {
			log = append(log, fmt.Sprintf("%d@%d", id, at))
			if d, ok := childDelay(id); ok && id < 100_000 {
				q.Schedule(at+d, event(id+100_000))
			}
		}
	}
	// modelDispatch mirrors one dispatch, including the child schedule.
	modelDispatch := func(e refEvent) {
		m.now = e.at
		m.log = append(m.log, fmt.Sprintf("%d@%d", e.id, e.at))
		if d, ok := childDelay(e.id); ok && e.id < 100_000 {
			m.schedule(e.at+d, e.id+100_000)
		}
	}

	for op := 0; op < 3000; op++ {
		switch r := g.rng.Intn(20); {
		case r < 10: // Schedule
			at := g.pickTime(m.now)
			id := g.nextID
			g.nextID++
			ref := q.Schedule(at, event(id))
			seq := m.schedule(at, id)
			if ref.Seq() != seq {
				t.Fatalf("seed %d op %d: seq %d, model %d", seed, op, ref.Seq(), seq)
			}
			refs = append(refs, live{ref, seq})
			g.pendAts = append(g.pendAts, at)
		case r < 13: // Cancel a random (possibly fired) event
			if len(refs) == 0 {
				continue
			}
			i := g.rng.Intn(len(refs))
			q.Cancel(refs[i].ref)
			m.cancel(refs[i].seq)
			refs = append(refs[:i], refs[i+1:]...)
		case r < 17: // Step
			ok := q.Step()
			if ok != (len(m.pending) > 0) {
				t.Fatalf("seed %d op %d: Step = %v with %d pending in model", seed, op, ok, len(m.pending))
			}
			if ok {
				modelDispatch(m.pop())
			}
		case r < 19: // RunUntil
			d := m.now + Time(g.rng.Int63n(int64(2*farHorizon)))
			q.RunUntil(d)
			for len(m.pending) > 0 && m.pending[0].at <= d {
				modelDispatch(m.pop())
			}
			if m.now < d {
				m.now = d
			}
		default: // Reset
			at := m.now + Time(g.rng.Intn(1000))
			q.Reset(at)
			m.pending, m.seq, m.now = m.pending[:0], 0, at
			refs = refs[:0]
			g.pendAts = g.pendAts[:0]
		}
		if q.Now() != m.now {
			t.Fatalf("seed %d op %d: Now = %d, model %d", seed, op, q.Now(), m.now)
		}
		if n := len(m.pending); q.Len() != n {
			t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, q.Len(), n)
		}
	}
	q.RunUntil(Forever - 1)
	for len(m.pending) > 0 {
		modelDispatch(m.pop())
	}
	if !reflect.DeepEqual(log, m.log) {
		for i := range log {
			if i >= len(m.log) || log[i] != m.log[i] {
				t.Fatalf("seed %d: dispatch %d diverged: queue %v, model %v", seed, i,
					log[i:min(len(log), i+5)], m.log[i:min(len(m.log), i+5)])
			}
		}
		t.Fatalf("seed %d: queue dispatched %d events, model %d", seed, len(log), len(m.log))
	}
}

// TestTwoTierMatchesReferenceOrder: the near/far split is invisible. A
// standalone queue dispatches exactly the (At, seq) order of a sorted
// reference model under random Schedule/Cancel/Step/RunUntil/Reset
// streams straddling farHorizon, including same-instant ties between a
// far-heap event and a later-scheduled near-heap one.
func TestTwoTierMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		twoTierRun(t, seed, NewEventQueue())
	}
}

// TestTwoTierSplit pins where events land: due at least farHorizon past
// Now goes far, anything sooner near.
func TestTwoTierSplit(t *testing.T) {
	q := NewEventQueue()
	q.RunUntil(5 * Millisecond)
	q.Schedule(q.Now()+farHorizon-1, func(Time) {})
	q.Schedule(q.Now()+farHorizon, func(Time) {})
	q.Schedule(q.Now(), func(Time) {})
	if len(q.near) != 2 || len(q.far) != 1 {
		t.Fatalf("near=%d far=%d, want 2 and 1", len(q.near), len(q.far))
	}
	if got := q.PeekTime(); got != q.Now() {
		t.Fatalf("PeekTime = %v, want Now", got)
	}
}

// TestEventQueueTwoTierSteadyStateAllocs extends the steady-state
// allocation budget to traffic that mixes both heaps.
func TestEventQueueTwoTierSteadyStateAllocs(t *testing.T) {
	q := NewEventQueue()
	fn := func(Time) {}
	cycle := func() {
		for i := 0; i < 32; i++ {
			d := Time(i)
			if i%2 == 1 {
				d += farHorizon
			}
			q.Schedule(q.Now()+d, fn)
		}
		q.Drain(32)
	}
	cycle() // warm the free list and both heaps' backing arrays
	if avg := testing.AllocsPerRun(100, cycle); avg > 0.5 {
		t.Errorf("two-tier schedule/dispatch allocates %.1f objects per 32-event cycle, want ~0", avg)
	}
}

package timing

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockDomainsAreExact(t *testing.T) {
	if CPUCycle*4 != 2*Nanosecond {
		t.Errorf("CPU cycle = %v, want 500ps (2 GHz)", CPUCycle)
	}
	if MemCycle != 5*CPUCycle {
		t.Errorf("mem cycle = %v, want 5 CPU cycles", MemCycle)
	}
	if MemCycles(400_000_000) != Second {
		t.Errorf("400M mem cycles = %v, want 1s", MemCycles(400_000_000))
	}
}

func TestConversions(t *testing.T) {
	cases := []struct {
		in   Time
		ns   float64
		s    float64
		cpuC int64
	}{
		{Nanosecond, 1, 1e-9, 2},
		{120 * Nanosecond, 120, 120e-9, 240}, // tRCD
		{Second, 1e9, 1, 2_000_000_000},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := c.in.Nanoseconds(); got != c.ns {
			t.Errorf("%v.Nanoseconds() = %v, want %v", c.in, got, c.ns)
		}
		if got := c.in.Seconds(); got != c.s {
			t.Errorf("%v.Seconds() = %v, want %v", c.in, got, c.s)
		}
		if got := c.in.CPUCycles(); got != c.cpuC {
			t.Errorf("%v.CPUCycles() = %v, want %v", c.in, got, c.cpuC)
		}
	}
}

func TestNanosecondsRoundTrip(t *testing.T) {
	f := func(ns uint32) bool {
		return Nanoseconds(float64(ns)) == Time(ns)*Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignUp(t *testing.T) {
	cases := []struct{ t, q, want Time }{
		{0, 10, 0},
		{1, 10, 10},
		{10, 10, 10},
		{11, 10, 20},
		{55, 0, 55},
		{55, -3, 55},
	}
	for _, c := range cases {
		if got := AlignUp(c.t, c.q); got != c.want {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", c.t, c.q, got, c.want)
		}
	}
}

func TestAlignUpProperty(t *testing.T) {
	f := func(tv uint32, qexp uint8) bool {
		q := Time(1) << (qexp % 20)
		a := AlignUp(Time(tv), q)
		return a >= Time(tv) && a%q == 0 && a-Time(tv) < q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{250, "250ps"},
		{1500, "1.500ns"},
		{550 * Nanosecond, "550.000ns"},
		{2 * Second, "2.000000s"},
		{-1500, "-1.500ns"},
		{math.MinInt64, "-9223372036854775808ps"}, // -t overflows back to itself
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEventQueueOrder(t *testing.T) {
	q := NewEventQueue()
	var fired []int
	q.Schedule(30, func(Time) { fired = append(fired, 3) })
	q.Schedule(10, func(Time) { fired = append(fired, 1) })
	q.Schedule(20, func(Time) { fired = append(fired, 2) })
	q.Drain(100)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fire order = %v, want [1 2 3]", fired)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %v, want 30", q.Now())
	}
}

func TestEventQueueFIFOAtSameTime(t *testing.T) {
	q := NewEventQueue()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(100, func(Time) { fired = append(fired, i) })
	}
	q.Drain(100)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events reordered: %v", fired)
		}
	}
}

func TestEventQueueCancel(t *testing.T) {
	q := NewEventQueue()
	var fired []int
	ev := q.Schedule(10, func(Time) { fired = append(fired, 1) })
	q.Schedule(20, func(Time) { fired = append(fired, 2) })
	q.Cancel(ev)
	q.Cancel(ev)         // double-cancel is a no-op
	q.Cancel(EventRef{}) // zero ref is a no-op
	q.Drain(100)
	if len(fired) != 1 || fired[0] != 2 {
		t.Errorf("fired = %v, want [2]", fired)
	}
}

func TestEventQueueCancelAfterFire(t *testing.T) {
	q := NewEventQueue()
	ev := q.Schedule(5, func(Time) {})
	q.Step()
	q.Cancel(ev) // must not corrupt the heap
	q.Schedule(10, func(Time) {})
	if n := q.Drain(10); n != 1 {
		t.Errorf("drained %d events, want 1", n)
	}
}

func TestEventQueueStaleRefAfterRecycle(t *testing.T) {
	// A ref to a fired event must stay a no-op even after the queue
	// recycles the event's storage for a new Schedule.
	q := NewEventQueue()
	stale := q.Schedule(5, func(Time) {})
	q.Step()
	fired := 0
	fresh := q.Schedule(10, func(Time) { fired++ }) // reuses the storage
	q.Cancel(stale)                                 // must not cancel the fresh event
	q.Drain(10)
	if fired != 1 {
		t.Errorf("stale ref cancelled a recycled event (fired=%d)", fired)
	}
	q.Cancel(fresh) // cancel after fire stays a no-op
}

func TestEventQueueScheduleSteadyStateAllocs(t *testing.T) {
	q := NewEventQueue()
	fn := func(Time) {}
	// Warm the free list and heap backing array.
	for i := 0; i < 64; i++ {
		q.Schedule(Time(i), fn)
	}
	q.Drain(64)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			q.Schedule(q.Now()+Time(i), fn)
		}
		q.Drain(32)
	})
	if avg > 0.5 {
		t.Errorf("steady-state schedule/dispatch allocates %.1f objects per 32-event cycle, want ~0", avg)
	}
}

func TestEventQueueScheduleDuringDispatch(t *testing.T) {
	q := NewEventQueue()
	var fired []Time
	q.Schedule(10, func(now Time) {
		fired = append(fired, now)
		q.Schedule(now+5, func(now Time) { fired = append(fired, now) })
	})
	q.Drain(100)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v, want [10 15]", fired)
	}
}

func TestEventQueuePastPanics(t *testing.T) {
	q := NewEventQueue()
	q.Schedule(100, func(Time) {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	q.Schedule(50, func(Time) {})
}

func TestEventQueueRunUntil(t *testing.T) {
	q := NewEventQueue()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		q.Schedule(at, func(now Time) { fired = append(fired, now) })
	}
	q.RunUntil(25)
	if len(fired) != 2 {
		t.Errorf("fired %d events by t=25, want 2", len(fired))
	}
	if q.Now() != 25 {
		t.Errorf("Now = %v, want 25", q.Now())
	}
	q.RunUntil(1000)
	if len(fired) != 4 || q.Now() != 1000 {
		t.Errorf("fired=%d Now=%v, want 4 events and Now=1000", len(fired), q.Now())
	}
}

func TestEventQueueRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := NewEventQueue()
	times := make([]Time, 500)
	var fired []Time
	for i := range times {
		times[i] = Time(rng.Intn(10_000))
		at := times[i]
		q.Schedule(at, func(now Time) { fired = append(fired, now) })
	}
	q.Drain(len(times))
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for i := range times {
		if fired[i] != times[i] {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], times[i])
		}
	}
}

func TestEventQueueCancelMiddleOfHeap(t *testing.T) {
	q := NewEventQueue()
	var events []EventRef
	count := 0
	for i := 0; i < 20; i++ {
		events = append(events, q.Schedule(Time(i*10), func(Time) { count++ }))
	}
	// Cancel every other event, including heap-internal nodes.
	for i := 0; i < 20; i += 2 {
		q.Cancel(events[i])
	}
	q.Drain(100)
	if count != 10 {
		t.Errorf("fired %d events, want 10", count)
	}
}

func TestPeekTime(t *testing.T) {
	q := NewEventQueue()
	if q.PeekTime() != Forever {
		t.Errorf("empty PeekTime = %v, want Forever", q.PeekTime())
	}
	q.Schedule(77, func(Time) {})
	if q.PeekTime() != 77 {
		t.Errorf("PeekTime = %v, want 77", q.PeekTime())
	}
}

func TestMinMax(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 || Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min/Max broken")
	}
}

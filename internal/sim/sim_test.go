package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	if s.queue[0].at != 0 {
		t.Fatalf("negative delay scheduled at %v, want 0", s.queue[0].at)
	}
	s.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(time.Millisecond, func() { fired = true })
	if e.index < 0 {
		t.Fatal("event should be queued before run")
	}
	if !e.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel should return false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	var evs []*Event
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, s.Schedule(time.Duration(i)*time.Millisecond, func() { got = append(got, i) }))
	}
	evs[4].Cancel()
	evs[7].Cancel()
	s.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestScheduleAt(t *testing.T) {
	s := New()
	var at time.Duration
	s.Schedule(10*time.Millisecond, func() {
		s.ScheduleAt(25*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 25*time.Millisecond {
		t.Fatalf("ScheduleAt fired at %v, want 25ms", at)
	}
}

func TestScheduleAtPastClampsToNow(t *testing.T) {
	s := New()
	var at time.Duration = -1
	s.Schedule(10*time.Millisecond, func() {
		s.ScheduleAt(5*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past ScheduleAt fired at %v, want clamped 10ms", at)
	}
}

func TestEvery(t *testing.T) {
	s := New()
	count := 0
	var ev *Event
	ev = s.Every(10*time.Millisecond, func() {
		count++
		if count == 5 {
			ev.Cancel()
		}
	})
	s.RunUntil(time.Second)
	if count != 5 {
		t.Fatalf("periodic fired %d times, want 5", count)
	}
	if s.Now() != time.Second {
		t.Fatalf("RunUntil left clock at %v", s.Now())
	}
}

func TestEveryTickSpacing(t *testing.T) {
	s := New()
	var ticks []time.Duration
	s.Every(100*time.Millisecond, func() { ticks = append(ticks, s.Now()) })
	s.RunUntil(550 * time.Millisecond)
	want := []time.Duration{100, 200, 300, 400, 500}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, w := range want {
		if ticks[i] != w*time.Millisecond {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], w*time.Millisecond)
		}
	}
}

func TestEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New().Every(0, func() {})
}

func TestSchedulePanicsOnNilFn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	New().Schedule(time.Second, nil)
}

func TestRunUntilDoesNotRunFutureEvents(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(100*time.Millisecond, func() { fired = true })
	s.RunUntil(99 * time.Millisecond)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if s.Now() != 99*time.Millisecond {
		t.Fatalf("clock = %v", s.Now())
	}
	s.RunUntil(100 * time.Millisecond)
	if !fired {
		t.Fatal("event at deadline should fire")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			s.Schedule(time.Millisecond, rec)
		}
	}
	s.Schedule(0, rec)
	s.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if s.Now() != 49*time.Millisecond {
		t.Fatalf("clock = %v, want 49ms", s.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(time.Duration(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", s.Fired())
	}
}

// Property: for any random batch of delays, events fire in nondecreasing
// time order and the clock ends at the max delay.
func TestQuickEventOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		k := int(n%64) + 1
		delays := make([]time.Duration, k)
		var fireTimes []time.Duration
		for i := 0; i < k; i++ {
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			delays[i] = d
			s.Schedule(d, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != k {
			return false
		}
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		max := time.Duration(0)
		for _, d := range delays {
			if d > max {
				max = d
			}
		}
		return s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the others fired.
func TestQuickCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		k := int(n%40) + 2
		fired := make([]bool, k)
		evs := make([]*Event, k)
		for i := 0; i < k; i++ {
			i := i
			evs[i] = s.Schedule(time.Duration(rng.Intn(100))*time.Millisecond, func() { fired[i] = true })
		}
		cancelled := make([]bool, k)
		for i := 0; i < k; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = evs[i].Cancel()
			}
		}
		s.Run()
		for i := 0; i < k; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelAfterFired(t *testing.T) {
	s := New()
	e := s.Schedule(time.Millisecond, func() {})
	s.Run()
	if e.index >= 0 {
		t.Fatal("fired event still queued")
	}
	if e.Cancel() {
		t.Fatal("Cancel on an already-fired one-shot returned true")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
}

func TestCancelOneShotFromOwnCallback(t *testing.T) {
	s := New()
	var e *Event
	var got bool
	e = s.Schedule(time.Millisecond, func() { got = e.Cancel() })
	s.Run()
	if got {
		t.Fatal("one-shot cancelling itself mid-fire returned true")
	}
	if e.Cancel() {
		t.Fatal("Cancel after the callback returned true")
	}
}

func TestEveryCancelFromOwnCallback(t *testing.T) {
	s := New()
	var e *Event
	runs := 0
	e = s.Every(10*time.Millisecond, func() {
		runs++
		if runs == 3 {
			if !e.Cancel() {
				t.Error("periodic self-cancel returned false")
			}
		}
	})
	s.RunUntil(time.Second)
	if runs != 3 {
		t.Fatalf("periodic event ran %d times after self-cancel at 3", runs)
	}
	if e.index >= 0 {
		t.Fatal("cancelled periodic event still queued")
	}
	if e.Cancel() {
		t.Fatal("Cancel after self-cancel returned true")
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		s.Run()
	}
}

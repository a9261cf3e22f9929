// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the Tango reproduction runs on virtual time supplied by this
// package: the edge-cloud clusters, the behaviour-level Kubernetes model,
// the request execution engine and the traffic dispatchers all schedule
// their work as events on a single Simulator. Events with equal timestamps
// fire in the order they were scheduled, so a run is bit-reproducible for
// a fixed seed.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback. The zero Event is invalid; events are
// created through Simulator.Schedule and friends.
type Event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	index     int // heap index, -1 when popped or cancelled
	period    time.Duration
	sim       *Simulator
	cancelled bool
	done      bool // one-shot that has fired
}

// Cancel prevents the event from firing again. For a one-shot event that
// already fired, or an already-cancelled event, Cancel is a no-op and
// returns false. Cancelling a periodic event from inside its own callback
// stops further repetitions and returns true.
func (e *Event) Cancel() bool {
	if e == nil || e.cancelled || e.done {
		return false
	}
	if e.index >= 0 && e.sim != nil {
		heap.Remove(&e.sim.queue, e.index)
		e.index = -1
	} else if e.period == 0 {
		return false // one-shot currently executing; too late
	}
	e.cancelled = true
	return true
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Simulator owns the virtual clock and the pending event queue.
// It is not safe for concurrent use; the simulation model is
// single-threaded by design so results are deterministic.
type Simulator struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
	fired uint64
}

// New returns a Simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero. The returned Event may be used to cancel the callback.
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	e := &Event{at: s.now + delay, seq: s.seq, fn: fn, sim: s}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// ScheduleAt queues fn at an absolute virtual time. Times in the past are
// clamped to now.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) *Event {
	return s.Schedule(at-s.now, fn)
}

// Every schedules fn to run now+period, then every period thereafter,
// until the returned Event is cancelled. period must be positive.
func (s *Simulator) Every(period time.Duration, fn func()) *Event {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	e := &Event{at: s.now + period, seq: s.seq, sim: s, period: period}
	s.seq++
	e.fn = func() {
		fn()
		if e.cancelled {
			return
		}
		// Re-arm in place so the caller's handle keeps working.
		e.at = s.now + period
		e.seq = s.seq
		s.seq++
		heap.Push(&s.queue, e)
	}
	heap.Push(&s.queue, e)
	return e
}

// Step executes the single earliest pending event and returns true.
// It returns false when the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	if e.at < s.now {
		panic("sim: event queue time went backwards")
	}
	s.now = e.at
	fn := e.fn
	if e.period == 0 {
		e.done = true
		e.fn = nil
	}
	s.fired++
	if fn != nil {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances
// the clock to exactly deadline.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

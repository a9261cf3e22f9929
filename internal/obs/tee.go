package obs

import (
	"sync"
	"sync/atomic"
)

// TeeSink fans the trace stream out to live subscribers without ever
// stalling the simulation hot path.
//
// It forwards every record synchronously to a primary sink first (the
// WriterSink/DigestSink/NullSink the run was configured with — so
// replay digests and trace files are byte-identical with or without a
// tee in the chain), then encodes the record once into its canonical
// NDJSON line and offers the line to every subscriber's bounded
// channel. A subscriber that cannot keep up loses lines — counted, per
// subscriber and in aggregate, never blocked on — which is the contract
// that lets an HTTP trace tail hang off a running engine.
//
// A small backlog ring of recent lines is retained so a subscriber that
// attaches late (e.g. curling /trace/tail after a burst) still sees
// recent history.
type TeeSink struct {
	next Sink

	mu      sync.Mutex
	subs    []*TailSub
	scratch []byte

	ring     [][]byte
	ringNext int
	ringLen  int

	lines   atomic.Uint64
	dropped atomic.Uint64
}

// TailSub is one live subscription to a TeeSink's NDJSON stream.
type TailSub struct {
	ch      chan []byte
	dropped atomic.Uint64
	sink    *TeeSink
	closed  bool
}

// NewTeeSink wraps next (nil falls back to NullSink) with a fan-out
// stage retaining up to backlog recent lines for late subscribers.
func NewTeeSink(next Sink, backlog int) *TeeSink {
	if next == nil {
		next = NullSink{}
	}
	s := &TeeSink{next: next, scratch: make([]byte, 0, 256)}
	if backlog > 0 {
		s.ring = make([][]byte, backlog)
	}
	return s
}

// Record implements Sink.
func (s *TeeSink) Record(ev Event) {
	s.scratch = AppendJSON(s.scratch[:0], ev)
	s.fanout()
	s.next.Record(ev)
}

// RecordSpan implements Sink.
func (s *TeeSink) RecordSpan(sp Span) {
	s.scratch = AppendSpanJSON(s.scratch[:0], sp)
	s.fanout()
	s.next.RecordSpan(sp)
}

// RecordDecision implements Sink.
func (s *TeeSink) RecordDecision(d Decision) {
	s.scratch = AppendDecisionJSON(s.scratch[:0], d)
	s.fanout()
	s.next.RecordDecision(d)
}

// fanout copies the scratch line (newline-terminated) into the backlog
// ring and every subscriber channel. Non-blocking by construction: a
// full subscriber channel counts a drop and moves on.
func (s *TeeSink) fanout() {
	line := make([]byte, len(s.scratch)+1)
	copy(line, s.scratch)
	line[len(s.scratch)] = '\n'
	s.lines.Add(1)
	s.mu.Lock()
	if len(s.ring) > 0 {
		s.ring[s.ringNext] = line
		s.ringNext = (s.ringNext + 1) % len(s.ring)
		if s.ringLen < len(s.ring) {
			s.ringLen++
		}
	}
	for _, sub := range s.subs {
		select {
		case sub.ch <- line:
		default:
			sub.dropped.Add(1)
			s.dropped.Add(1)
		}
	}
	s.mu.Unlock()
}

// Subscribe opens a bounded subscription (buf <= 0 selects 1024). When
// withBacklog is set the retained recent lines are queued first, oldest
// to newest.
func (s *TeeSink) Subscribe(buf int, withBacklog bool) *TailSub {
	if buf <= 0 {
		buf = 1024
	}
	sub := &TailSub{ch: make(chan []byte, buf), sink: s}
	s.mu.Lock()
	if withBacklog && s.ringLen > 0 {
		start := s.ringNext - s.ringLen
		if start < 0 {
			start += len(s.ring)
		}
		for i := 0; i < s.ringLen; i++ {
			line := s.ring[(start+i)%len(s.ring)]
			select {
			case sub.ch <- line:
			default:
				sub.dropped.Add(1)
				s.dropped.Add(1)
			}
		}
	}
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub
}

// Lines returns the channel of NDJSON lines (each newline-terminated;
// the slice must not be mutated — it may be shared with other
// subscribers). Closed by TailSub.Close.
func (sub *TailSub) Lines() <-chan []byte { return sub.ch }

// Dropped returns how many lines this subscriber lost to backpressure.
func (sub *TailSub) Dropped() uint64 { return sub.dropped.Load() }

// Close detaches the subscription and closes its channel. Idempotent.
func (sub *TailSub) Close() {
	s := sub.sink
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	for i, x := range s.subs {
		if x == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
	close(sub.ch)
}

// Lines returns how many NDJSON lines the tee has encoded.
func (s *TeeSink) Lines() uint64 { return s.lines.Load() }

// Dropped returns the aggregate lines lost across all subscribers
// (including ones that have since closed).
func (s *TeeSink) Dropped() uint64 { return s.dropped.Load() }

// Subscribers returns the number of live subscriptions.
func (s *TeeSink) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

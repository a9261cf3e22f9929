// Package obs is the observability substrate of the reproduction: a
// simulation-time tracer emitting structured lifecycle events, a labeled
// metric registry the 800 ms collection loop scrapes, and the run-report
// document written at the end of a simulation.
//
// The tracer stands in for the per-request logging a production
// deployment would ship to a tracing backend. Every major decision point
// of the stack — request arrival, dispatch, queueing, admission,
// completion, abandonment, BE compression/eviction/boost, D-VPA cgroup
// writes, DSS-LC flow solves, QoS re-assurance adjustments, node
// failures and pod lifecycle transitions — emits one Event. Spans are
// reconstructed by joining events on the request ID: arrival → dispatch
// → queue → start → finish/abandon share ReqID, and the At timestamps
// give the per-stage dwell times.
//
// Events are timestamped with *virtual* time from the simulator clock,
// so traces are bit-reproducible for a fixed seed.
//
// Sinks are pluggable: NullSink discards (and must stay allocation-free
// on the hot path — the engine benchmarks enforce this), RingSink keeps
// the most recent events in memory, WriterSink streams NDJSON.
package obs

import (
	"bufio"
	"io"
	"strconv"
	"time"
)

// Kind enumerates the event types the stack emits.
type Kind uint8

const (
	// Request lifecycle (engine + core).
	EvArrival  Kind = iota // request accepted at its cluster master
	EvDispatch             // routed to a worker (Value = transit delay ms)
	EvQueue                // not admitted, parked in a node queue (Aux = queue length)
	EvStart                // admitted and running (Value = alloc mCPU, Aux = wait µs)
	EvFinish               // completed (Value = latency ms, Aux = 1 if QoS satisfied)
	EvAbandon              // LC abandoned before starting (Value = age ms)
	// HRM preemption / boost mechanics (§4.1).
	EvCompress // BE victim compressed (Value = mCPU cut, Aux = BW cut)
	EvEvict    // BE evicted and requeued for restart (Value = MiB freed, Aux = restarts)
	EvBoost    // BE granted idle CPU (Value = mCPU granted)
	// Control-plane decisions.
	EvFlowSolve // DSS-LC batch solve (Aux = batch size, Value = routed count)
	EvReassure  // QoS re-assurance override change (Value = slack δ, Aux = new mCPU)
	EvCgroup    // cgroup limit write (Detail = path, Value = mCPU quota, Aux = MiB)
	EvPod       // K8s pod lifecycle transition (Detail = "EVENT/Phase pod-name")
	// Topology faults.
	EvNodeFail    // worker failure (Aux = displaced requests)
	EvNodeRecover // worker recovery
	// Chaos and migration (internal/chaos). Appended at the end of the
	// enum so chaos-free runs keep their event numbering — and therefore
	// their replay digests — unchanged.
	EvChaos   // fault applied/cleared (Detail = fault kind, Aux = 1 apply / 0 clear)
	EvMigrate // live migration departs (Node = source, Aux = destination, Value = transfer ms)
	EvDefrag  // defragmentation pass (Value = pods moved, Aux = donor nodes)

	kindCount // sentinel
)

var kindNames = [kindCount]string{
	EvArrival:     "arrival",
	EvDispatch:    "dispatch",
	EvQueue:       "queue",
	EvStart:       "start",
	EvFinish:      "finish",
	EvAbandon:     "abandon",
	EvCompress:    "be-compress",
	EvEvict:       "be-evict",
	EvBoost:       "be-boost",
	EvFlowSolve:   "flow-solve",
	EvReassure:    "reassure",
	EvCgroup:      "cgroup-write",
	EvPod:         "pod",
	EvNodeFail:    "node-fail",
	EvNodeRecover: "node-recover",
	EvChaos:       "chaos",
	EvMigrate:     "migrate",
	EvDefrag:      "defrag",
}

// String returns the stable NDJSON name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. Identifier fields use -1 for "not
// applicable"; build events with Ev so the sentinels are set, then chain
// the value-receiver setters. The struct is plain data and is passed by
// value everywhere, so emitting with the null sink performs no heap
// allocation.
type Event struct {
	Seq     uint64        // stamped by the Tracer, unique per run
	At      time.Duration // virtual time, stamped by the Tracer
	Kind    Kind
	Tag     string  // run tag (distinguishes systems sharing one sink)
	ReqID   int64   // request ID, -1 when not request-scoped
	Cluster int     // cluster ID, -1 when unknown
	NodeID  int     // worker node ID, -1 when unknown
	Svc     int     // service type ID, -1 when unknown
	Class   string  // "LC" / "BE" / ""
	Value   float64 // kind-specific measurement (see Kind docs)
	Aux     int64   // kind-specific auxiliary integer
	Detail  string  // kind-specific note (cgroup path, grow/shrink, ...)
}

// Ev returns an Event of the given kind with all identifier fields set
// to the -1 sentinel. The pointer-receiver builder mutates in place: the
// event never escapes (Emit copies it into the sink), so the whole chain
// compiles to stack writes rather than repeated struct copies — that, not
// style, is why the setters are pointer methods.
func Ev(k Kind) *Event {
	return &Event{Kind: k, ReqID: -1, Cluster: -1, NodeID: -1, Svc: -1}
}

// Req sets the request ID.
func (e *Event) Req(id int64) *Event { e.ReqID = id; return e }

// Node sets the worker node ID.
func (e *Event) Node(id int) *Event { e.NodeID = id; return e }

// Clu sets the cluster ID.
func (e *Event) Clu(id int) *Event { e.Cluster = id; return e }

// Service sets the service type ID.
func (e *Event) Service(id int) *Event { e.Svc = id; return e }

// Cls sets the request class name.
func (e *Event) Cls(c string) *Event { e.Class = c; return e }

// Val sets the kind-specific measurement.
func (e *Event) Val(v float64) *Event { e.Value = v; return e }

// Au sets the kind-specific auxiliary integer.
func (e *Event) Au(v int64) *Event { e.Aux = v; return e }

// Note sets the kind-specific detail string. Hot-path callers must pass
// only pre-existing strings (no formatting) to stay allocation-free.
func (e *Event) Note(s string) *Event { e.Detail = s; return e }

// Sink receives every emitted event, span and decision audit record.
// Implementations must not retain pointers into a record (each is a
// value) and are called synchronously from the simulation loop.
type Sink interface {
	Record(Event)
	RecordSpan(Span)
	RecordDecision(Decision)
}

// NullSink discards every event. Recording through it is allocation-free,
// so tracing hooks can stay compiled-in at zero cost (the
// BenchmarkEngine* harness pins this down).
type NullSink struct{}

// Record implements Sink.
func (NullSink) Record(Event) {}

// RingSink keeps the most recent events in a fixed-capacity ring, plus
// a second ring of spans and every decision record (span.go).
type RingSink struct {
	buf   []Event
	next  int
	total uint64

	spans     []Span
	spanNext  int
	spanTotal uint64
	decisions []Decision
}

// NewRingSink creates a ring holding up to capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, 0, capacity)}
}

// Record implements Sink.
func (s *RingSink) Record(ev Event) {
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ev)
	} else {
		s.buf[s.next] = ev
	}
	s.next = (s.next + 1) % cap(s.buf)
	s.total++
}

// Total returns how many events were recorded (including overwritten).
func (s *RingSink) Total() uint64 { return s.total }

// Events returns the retained events in emission order.
func (s *RingSink) Events() []Event {
	if len(s.buf) < cap(s.buf) {
		out := make([]Event, len(s.buf))
		copy(out, s.buf)
		return out
	}
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// WriterSink streams events as NDJSON: one JSON object per line. It
// buffers internally and reuses one scratch buffer per line, so steady-
// state emission does not allocate. Write failures do not stop the
// simulation: the line is dropped, Dropped is incremented and the first
// error is retained for Err — callers surface both in the run report.
type WriterSink struct {
	w       *bufio.Writer
	scratch []byte
	err     error
	// Lines counts records written; Dropped counts records lost to
	// write errors (disk full, closed pipe, ...).
	Lines   uint64
	Dropped uint64
}

// NewWriterSink wraps w in a buffered NDJSON encoder. Call Flush before
// inspecting the output.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{w: bufio.NewWriterSize(w, 64<<10), scratch: make([]byte, 0, 256)}
}

// Record implements Sink.
func (s *WriterSink) Record(ev Event) {
	s.scratch = AppendJSON(s.scratch[:0], ev)
	s.scratch = append(s.scratch, '\n')
	s.write()
}

// write flushes the scratch line to the buffered writer, accounting
// drops instead of silently ignoring errors (bufio errors are sticky,
// so after the first failure every subsequent record counts as
// dropped).
func (s *WriterSink) write() {
	if _, err := s.w.Write(s.scratch); err != nil {
		s.Dropped++
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.Lines++
}

// Err returns the first write error encountered (nil if none).
func (s *WriterSink) Err() error { return s.err }

// Flush drains the internal buffer to the underlying writer.
func (s *WriterSink) Flush() error {
	if err := s.w.Flush(); err != nil {
		if s.err == nil {
			s.err = err
		}
		return err
	}
	return s.err
}

// AppendJSON appends the event's JSON object (no trailing newline) to
// dst and returns the extended slice. Identifier fields equal to the -1
// sentinel and empty strings are omitted; at_us is virtual time in
// microseconds.
func AppendJSON(dst []byte, ev Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"at_us":`...)
	dst = strconv.AppendInt(dst, int64(ev.At/time.Microsecond), 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, '"')
	if ev.Tag != "" {
		dst = appendStrField(dst, "tag", ev.Tag)
	}
	if ev.ReqID >= 0 {
		dst = append(dst, `,"req":`...)
		dst = strconv.AppendInt(dst, ev.ReqID, 10)
	}
	if ev.Cluster >= 0 {
		dst = append(dst, `,"cluster":`...)
		dst = strconv.AppendInt(dst, int64(ev.Cluster), 10)
	}
	if ev.NodeID >= 0 {
		dst = append(dst, `,"node":`...)
		dst = strconv.AppendInt(dst, int64(ev.NodeID), 10)
	}
	if ev.Svc >= 0 {
		dst = append(dst, `,"service":`...)
		dst = strconv.AppendInt(dst, int64(ev.Svc), 10)
	}
	if ev.Class != "" {
		dst = appendStrField(dst, "class", ev.Class)
	}
	if ev.Value != 0 {
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendFloat(dst, ev.Value, 'g', -1, 64)
	}
	if ev.Aux != 0 {
		dst = append(dst, `,"aux":`...)
		dst = strconv.AppendInt(dst, ev.Aux, 10)
	}
	if ev.Detail != "" {
		dst = appendStrField(dst, "detail", ev.Detail)
	}
	return append(dst, '}')
}

func appendStrField(dst []byte, name, v string) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, name...)
	dst = append(dst, `":"`...)
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, `\u00`...)
			const hex = "0123456789abcdef"
			dst = append(dst, hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// Tracer stamps, counts and forwards events to its sink. A nil *Tracer
// is a valid disabled tracer: Enabled reports false and Emit is a no-op,
// so call sites read
//
//	if tr := e.tracer; tr.Enabled() {
//		tr.Emit(obs.Ev(obs.EvStart).Req(id)...)
//	}
//
// and compile to a nil check when tracing is off. Tracer is not safe for
// concurrent use; the simulation is single-threaded by design.
type Tracer struct {
	now    func() time.Duration
	sink   Sink
	tag    string
	seq    uint64
	counts [kindCount]uint64

	// Span/decision support (span.go).
	spanSeq   uint64
	decSeq    int64
	spans     uint64
	decisions uint64

	// sampler, when set, gates root span reservation per request
	// (RequestSpanID in span.go). Nil keeps every span.
	sampler *Sampler
}

// SetSampler installs a head-based span sampler (nil keeps every
// span). Safe on a nil receiver.
func (t *Tracer) SetSampler(s *Sampler) {
	if t != nil {
		t.sampler = s
	}
}

// Sampler returns the installed span sampler (nil when unsampled).
func (t *Tracer) Sampler() *Sampler {
	if t == nil {
		return nil
	}
	return t.sampler
}

// NewTracer builds a tracer over a virtual clock and a sink. A nil sink
// falls back to NullSink (events are still counted for the run report).
func NewTracer(now func() time.Duration, sink Sink) *Tracer {
	if now == nil {
		panic("obs: NewTracer requires a clock")
	}
	if sink == nil {
		sink = NullSink{}
	}
	return &Tracer{now: now, sink: sink}
}

// SetTag stamps every subsequent event with tag (used when multiple
// systems share one sink, e.g. tango-bench suites).
func (t *Tracer) SetTag(tag string) { t.tag = tag }

// Enabled reports whether the tracer is live. Safe on a nil receiver.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit stamps sequence number, virtual time and tag, bumps the per-kind
// counter and forwards a copy to the sink. Safe on a nil receiver
// (no-op). The pointer parameter does not escape, so events built inline
// with Ev(...) stay on the caller's stack.
func (t *Tracer) Emit(ev *Event) {
	if t == nil {
		return
	}
	ev.Seq = t.seq
	t.seq++
	ev.At = t.now()
	ev.Tag = t.tag
	if int(ev.Kind) < len(t.counts) {
		t.counts[ev.Kind]++
	}
	t.sink.Record(*ev)
}

// Emitted returns the total number of emitted events.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.seq
}

// Counts returns the per-kind event counts keyed by kind name, omitting
// zero entries. Nil-safe (returns nil).
func (t *Tracer) Counts() map[string]uint64 {
	if t == nil {
		return nil
	}
	out := map[string]uint64{}
	for k, c := range t.counts {
		if c > 0 {
			out[Kind(k).String()] = c
		}
	}
	return out
}

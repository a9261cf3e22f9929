package obs

import (
	"strconv"
	"time"
)

// Causal spans and scheduling-decision audit records.
//
// Events (obs.go) are flat points; a Span is an interval with an ID and
// a parent ID, so a request's end-to-end latency decomposes into named
// child intervals: sched (master queue + scheduling decision), transit
// (master→worker network), queue (worker queue wait), exec (processing,
// including the D-VPA scale latency), return (worker→user response
// transit). The engine emits children that exactly tile
// [Arrival, completion], so for every finished request
//
//	Σ child durations == root "request" span duration
//
// which is the contract internal/tanalysis and the tango-trace CLI
// build on. Spans carry the sentinel convention of Event (-1 / 0 means
// "not applicable") and the same zero-alloc discipline: emitting a span
// through the NullSink performs no heap allocation, so span hooks stay
// compiled-in at zero cost when tracing is off.
//
// A Decision is the audit record of one scheduling solve: which
// candidate workers were considered, the per-candidate cost terms
// (capacity slots per Eq. 2, transmission-delay cost per Eq. 3, link
// caps per Eq. 4, projected load for the one-shot baselines), how much
// flow each candidate received and why losers were rejected. Requests
// routed by a decision carry its ID in their "sched" span, which is how
// a QoS regression is attributed to the decision that caused it.

// Span names the engine emits. Exported so analysis code matches on
// identifiers instead of string literals.
const (
	SpanRequest     = "request" // root: arrival → user-perceived completion
	SpanSched       = "sched"   // master queue wait + scheduling decision
	SpanTransit     = "transit" // master → worker dispatch transit
	SpanQueue       = "queue"   // worker queue wait
	SpanExec        = "exec"    // processing (includes scale latency)
	SpanReturn      = "return"  // worker → user response transit
	SpanInterrupted = "interrupted"
	SpanEvicted     = "evicted"
	SpanMigrate     = "migrate" // live-migration transfer window
	SpanDVPA        = "dvpa-resize"
)

// Span is one closed interval of a request's (or component's) life.
// Build with Sp, chain the setters, then Tracer.EmitSpan.
type Span struct {
	ID     uint64 // unique per run; 0 lets EmitSpan assign one
	Parent uint64 // 0 = root
	Name   string
	Start  time.Duration // virtual time
	End    time.Duration
	Tag    string // stamped by the Tracer

	ReqID    int64 // -1 when not request-scoped
	Cluster  int   // -1 unknown
	NodeID   int   // -1 unknown
	Svc      int   // -1 unknown
	Class    string
	Decision int64  // linked scheduling decision, -1 none
	Detail   string // e.g. "abandoned", "displaced", cgroup path
}

// Sp returns a Span over [start, end] with all identifiers set to their
// sentinels. Like Ev, the builder mutates in place and the span never
// escapes (EmitSpan copies it into the sink), so the chain compiles to
// stack writes.
func Sp(name string, start, end time.Duration) *Span {
	return &Span{Name: name, Start: start, End: end,
		ReqID: -1, Cluster: -1, NodeID: -1, Svc: -1, Decision: -1}
}

// Req sets the request ID.
func (s *Span) Req(id int64) *Span { s.ReqID = id; return s }

// Node sets the worker node ID.
func (s *Span) Node(id int) *Span { s.NodeID = id; return s }

// Clu sets the cluster ID.
func (s *Span) Clu(id int) *Span { s.Cluster = id; return s }

// Service sets the service type ID.
func (s *Span) Service(id int) *Span { s.Svc = id; return s }

// Cls sets the request class name.
func (s *Span) Cls(c string) *Span { s.Class = c; return s }

// Child links the span under parent.
func (s *Span) Child(parent uint64) *Span { s.Parent = parent; return s }

// Dec links the scheduling decision that produced this span.
func (s *Span) Dec(id int64) *Span { s.Decision = id; return s }

// Note sets the detail string. Hot-path callers must pass pre-existing
// strings (no formatting) to stay allocation-free.
func (s *Span) Note(d string) *Span { s.Detail = d; return s }

// WithID forces a specific span ID (the engine pre-assigns a request's
// root ID at dispatch so children can link to it before it is emitted).
func (s *Span) WithID(id uint64) *Span { s.ID = id; return s }

// Candidate is one worker considered by a scheduling decision.
type Candidate struct {
	Node     int     `json:"node"`
	Capacity int64   `json:"cap"`                // request slots t_i^k (Eq. 2)
	CostUS   int64   `json:"cost_us,omitempty"`  // transmission-delay cost (Eq. 3)
	LinkCap  int64   `json:"link_cap,omitempty"` // link capacity bound (Eq. 4)
	Util     float64 `json:"util,omitempty"`     // projected load (one-shot baselines)
	Flow     int64   `json:"flow,omitempty"`     // requests routed here
	Reject   string  `json:"reject,omitempty"`   // why nothing was routed here
}

// Decision phases (Algorithm 2's two routing graphs).
const (
	PhaseImmediate = "immediate" // Ĝ_k: availability-capacity graph
	PhaseOverflow  = "overflow"  // Ĝ'_k: λ-scaled total-capacity graph
)

// Candidate rejection reasons.
const (
	RejectNoCapacity  = "no-capacity"  // zero availability under Eq. 2
	RejectLinkLimited = "link-limited" // link cap clamped the node below its slots
	RejectNotChosen   = "not-chosen"   // had capacity, solver preferred others
)

// Decision is the audit record of one scheduling solve. Not a hot-path
// type: one is built per batch solve (DSS-LC) or per baseline pick, and
// only when tracing or SLO accounting wants it.
type Decision struct {
	ID         int64         `json:"decision"` // unique per run; 0 lets EmitDecision assign
	At         time.Duration `json:"-"`
	Tag        string        `json:"tag,omitempty"`
	Algo       string        `json:"algo"`            // "DSS-LC", "k8s-native", ...
	Phase      string        `json:"phase,omitempty"` // "immediate" | "overflow" (Algorithm 2)
	Cluster    int           `json:"cluster"`
	Svc        int           `json:"service"`     // -1 for mixed batches
	Batch      int           `json:"batch"`       // requests offered to the solve
	Routed     int           `json:"routed"`      // requests assigned by the solve
	GraphNodes int           `json:"graph_nodes"` // MCNF graph size (0 for baselines)
	GraphEdges int           `json:"graph_edges"` //
	Candidates []Candidate   `json:"cands,omitempty"`
}

// RecordSpan implements Sink.
func (NullSink) RecordSpan(Span) {}

// RecordDecision implements Sink.
func (NullSink) RecordDecision(Decision) {}

// RecordSpan implements Sink: spans share the ring capacity with a
// second ring of their own.
func (s *RingSink) RecordSpan(sp Span) {
	if cap(s.spans) == 0 {
		s.spans = make([]Span, 0, cap(s.buf))
	}
	if len(s.spans) < cap(s.spans) {
		s.spans = append(s.spans, sp)
	} else {
		s.spans[s.spanNext] = sp
	}
	s.spanNext = (s.spanNext + 1) % cap(s.spans)
	s.spanTotal++
}

// RecordDecision implements Sink (kept unbounded: decisions are
// batch-scale, not request-scale).
func (s *RingSink) RecordDecision(d Decision) { s.decisions = append(s.decisions, d) }

// SpanTotal returns how many spans were recorded (including overwritten).
func (s *RingSink) SpanTotal() uint64 { return s.spanTotal }

// Spans returns the retained spans in emission order.
func (s *RingSink) Spans() []Span {
	if len(s.spans) < cap(s.spans) || cap(s.spans) == 0 {
		out := make([]Span, len(s.spans))
		copy(out, s.spans)
		return out
	}
	out := make([]Span, 0, len(s.spans))
	out = append(out, s.spans[s.spanNext:]...)
	out = append(out, s.spans[:s.spanNext]...)
	return out
}

// Decisions returns every recorded decision in emission order.
func (s *RingSink) Decisions() []Decision { return s.decisions }

// RecordSpan implements Sink: one NDJSON line per span.
func (s *WriterSink) RecordSpan(sp Span) {
	s.scratch = AppendSpanJSON(s.scratch[:0], sp)
	s.scratch = append(s.scratch, '\n')
	s.write()
}

// RecordDecision implements Sink: one NDJSON line per decision.
func (s *WriterSink) RecordDecision(d Decision) {
	s.scratch = AppendDecisionJSON(s.scratch[:0], d)
	s.scratch = append(s.scratch, '\n')
	s.write()
}

// AppendSpanJSON appends the span's JSON object (no trailing newline) to
// dst. Sentinel identifiers (-1, parent 0) and empty strings are
// omitted; times are virtual microseconds. A span line is distinguished
// from an event line by the presence of "span" and "name".
func AppendSpanJSON(dst []byte, sp Span) []byte {
	dst = append(dst, `{"span":`...)
	dst = strconv.AppendUint(dst, sp.ID, 10)
	if sp.Parent != 0 {
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendUint(dst, sp.Parent, 10)
	}
	dst = append(dst, `,"name":"`...)
	dst = append(dst, sp.Name...)
	dst = append(dst, `","start_us":`...)
	dst = strconv.AppendInt(dst, int64(sp.Start/time.Microsecond), 10)
	dst = append(dst, `,"end_us":`...)
	dst = strconv.AppendInt(dst, int64(sp.End/time.Microsecond), 10)
	if sp.Tag != "" {
		dst = appendStrField(dst, "tag", sp.Tag)
	}
	if sp.ReqID >= 0 {
		dst = append(dst, `,"req":`...)
		dst = strconv.AppendInt(dst, sp.ReqID, 10)
	}
	if sp.Cluster >= 0 {
		dst = append(dst, `,"cluster":`...)
		dst = strconv.AppendInt(dst, int64(sp.Cluster), 10)
	}
	if sp.NodeID >= 0 {
		dst = append(dst, `,"node":`...)
		dst = strconv.AppendInt(dst, int64(sp.NodeID), 10)
	}
	if sp.Svc >= 0 {
		dst = append(dst, `,"service":`...)
		dst = strconv.AppendInt(dst, int64(sp.Svc), 10)
	}
	if sp.Class != "" {
		dst = appendStrField(dst, "class", sp.Class)
	}
	if sp.Decision >= 0 {
		dst = append(dst, `,"decision":`...)
		dst = strconv.AppendInt(dst, sp.Decision, 10)
	}
	if sp.Detail != "" {
		dst = appendStrField(dst, "detail", sp.Detail)
	}
	return append(dst, '}')
}

// AppendDecisionJSON appends the decision's JSON object (no trailing
// newline) to dst. A decision line is distinguished by "decision" plus
// "algo".
func AppendDecisionJSON(dst []byte, d Decision) []byte {
	dst = append(dst, `{"decision":`...)
	dst = strconv.AppendInt(dst, d.ID, 10)
	dst = append(dst, `,"at_us":`...)
	dst = strconv.AppendInt(dst, int64(d.At/time.Microsecond), 10)
	dst = appendStrField(dst, "algo", d.Algo)
	if d.Phase != "" {
		dst = appendStrField(dst, "phase", d.Phase)
	}
	if d.Tag != "" {
		dst = appendStrField(dst, "tag", d.Tag)
	}
	if d.Cluster >= 0 {
		dst = append(dst, `,"cluster":`...)
		dst = strconv.AppendInt(dst, int64(d.Cluster), 10)
	}
	if d.Svc >= 0 {
		dst = append(dst, `,"service":`...)
		dst = strconv.AppendInt(dst, int64(d.Svc), 10)
	}
	dst = append(dst, `,"batch":`...)
	dst = strconv.AppendInt(dst, int64(d.Batch), 10)
	dst = append(dst, `,"routed":`...)
	dst = strconv.AppendInt(dst, int64(d.Routed), 10)
	if d.GraphNodes > 0 {
		dst = append(dst, `,"graph_nodes":`...)
		dst = strconv.AppendInt(dst, int64(d.GraphNodes), 10)
		dst = append(dst, `,"graph_edges":`...)
		dst = strconv.AppendInt(dst, int64(d.GraphEdges), 10)
	}
	if len(d.Candidates) > 0 {
		dst = append(dst, `,"cands":[`...)
		for i, c := range d.Candidates {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = strconv.AppendInt(dst, int64(c.Node), 10)
			dst = append(dst, `,"cap":`...)
			dst = strconv.AppendInt(dst, c.Capacity, 10)
			if c.CostUS != 0 {
				dst = append(dst, `,"cost_us":`...)
				dst = strconv.AppendInt(dst, c.CostUS, 10)
			}
			if c.LinkCap != 0 {
				dst = append(dst, `,"link_cap":`...)
				dst = strconv.AppendInt(dst, c.LinkCap, 10)
			}
			if c.Util != 0 {
				dst = append(dst, `,"util":`...)
				dst = strconv.AppendFloat(dst, c.Util, 'g', -1, 64)
			}
			if c.Flow != 0 {
				dst = append(dst, `,"flow":`...)
				dst = strconv.AppendInt(dst, c.Flow, 10)
			}
			if c.Reject != "" {
				dst = appendStrField(dst, "reject", c.Reject)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// RequestSpanID reserves the root span ID for a request without
// emitting anything (the engine pre-assigns a request's root span ID so
// children emitted earlier can link to it), honoring the installed
// head-based sampler: an unsampled request gets 0 (the "no span"
// sentinel every child-span emission site already guards on), so its
// whole span tree is skipped atomically. Deterministic — re-asking for
// the same request returns the same decision — and with no sampler (or
// rate 1.0) every request gets the next ID in sequence, so unsampled
// runs emit byte-identical streams. Safe on a nil receiver (returns 0).
func (t *Tracer) RequestSpanID(reqID int64) uint64 {
	if t == nil {
		return 0
	}
	if !t.sampler.Sampled(reqID) {
		return 0
	}
	t.spanSeq++
	return t.spanSeq
}

// EmitSpan stamps the span (ID when unset, tag), bumps the span counter
// and forwards a copy to the sink when it understands spans. Safe on a
// nil receiver. Like Emit, the pointer parameter does not escape.
func (t *Tracer) EmitSpan(sp *Span) {
	if t == nil {
		return
	}
	if sp.ID == 0 {
		t.spanSeq++
		sp.ID = t.spanSeq
	}
	sp.Tag = t.tag
	t.spans++
	t.sink.RecordSpan(*sp)
}

// EmitDecision stamps the decision (ID when unset, virtual time, tag),
// bumps the decision counter and forwards a copy to the sink. The
// assigned ID is left in d.ID so callers can link it to request spans.
// Safe on a nil receiver (d.ID is then left at 0).
func (t *Tracer) EmitDecision(d *Decision) {
	if t == nil {
		return
	}
	if d.ID == 0 {
		t.decSeq++
		d.ID = t.decSeq
	}
	d.At = t.now()
	d.Tag = t.tag
	t.decisions++
	t.sink.RecordDecision(*d)
}

// SpanCount returns the number of emitted spans. Nil-safe.
func (t *Tracer) SpanCount() uint64 {
	if t == nil {
		return 0
	}
	return t.spans
}

// DecisionCount returns the number of emitted decisions. Nil-safe.
func (t *Tracer) DecisionCount() uint64 {
	if t == nil {
		return 0
	}
	return t.decisions
}

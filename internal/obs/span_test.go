package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSpanBuilderSentinelsAndChaining(t *testing.T) {
	sp := Sp(SpanExec, time.Millisecond, 5*time.Millisecond)
	if sp.ReqID != -1 || sp.NodeID != -1 || sp.Cluster != -1 || sp.Svc != -1 || sp.Decision != -1 {
		t.Fatalf("sentinels not set: %+v", sp)
	}
	sp = sp.Req(7).Node(3).Clu(1).Service(2).Cls("LC").Child(9).Dec(4).Note("x").WithID(11)
	if sp.ReqID != 7 || sp.NodeID != 3 || sp.Cluster != 1 || sp.Svc != 2 ||
		sp.Class != "LC" || sp.Parent != 9 || sp.Decision != 4 || sp.Detail != "x" || sp.ID != 11 {
		t.Fatalf("chaining lost fields: %+v", sp)
	}
	if d := sp.End - sp.Start; d != 4*time.Millisecond {
		t.Fatalf("duration %v", d)
	}
}

func TestEmitSpanAssignsIDsAndCounts(t *testing.T) {
	ring := NewRingSink(8)
	tr := NewTracer(fixedClock(0), ring)
	tr.SetTag("sysA")
	root := tr.RequestSpanID(1)
	tr.EmitSpan(Sp(SpanSched, 0, time.Millisecond).Child(root).Req(1))
	tr.EmitSpan(Sp(SpanRequest, 0, time.Millisecond).WithID(root).Req(1))
	if tr.SpanCount() != 2 {
		t.Fatalf("span count %d", tr.SpanCount())
	}
	spans := ring.Spans()
	if len(spans) != 2 || ring.SpanTotal() != 2 {
		t.Fatalf("ring: %d/%d", len(spans), ring.SpanTotal())
	}
	if spans[0].ID == 0 || spans[0].ID == root || spans[0].Parent != root {
		t.Fatalf("child ids wrong: %+v", spans[0])
	}
	if spans[1].ID != root || spans[1].Tag != "sysA" {
		t.Fatalf("root id/tag wrong: %+v", spans[1])
	}
}

func TestEmitDecisionStampsAndLinks(t *testing.T) {
	ring := NewRingSink(8)
	tr := NewTracer(fixedClock(3*time.Millisecond), ring)
	d := Decision{Algo: "DSS-LC", Cluster: 0, Svc: 1, Batch: 4, Routed: 4}
	tr.EmitDecision(&d)
	if d.ID != 1 || d.At != 3*time.Millisecond {
		t.Fatalf("not stamped: %+v", d)
	}
	d2 := Decision{Algo: "DSS-LC", Cluster: 0, Svc: 2}
	tr.EmitDecision(&d2)
	if d2.ID != 2 || tr.DecisionCount() != 2 {
		t.Fatalf("sequencing: id=%d count=%d", d2.ID, tr.DecisionCount())
	}
	if len(ring.Decisions()) != 2 {
		t.Fatalf("ring decisions: %d", len(ring.Decisions()))
	}
}

func TestNilTracerSpansSafe(t *testing.T) {
	var tr *Tracer
	if tr.RequestSpanID(1) != 0 {
		t.Fatal("nil tracer issued a span ID")
	}
	tr.EmitSpan(Sp(SpanExec, 0, 1)) // must not panic
	d := Decision{Algo: "x"}
	tr.EmitDecision(&d)
	if d.ID != 0 || tr.SpanCount() != 0 || tr.DecisionCount() != 0 {
		t.Fatal("nil tracer accumulated state")
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	sp := *Sp(SpanSched, 1500*time.Microsecond, 2500*time.Microsecond).
		Req(42).Clu(1).Node(3).Service(4).Cls("LC").Dec(7).Child(9).Note("d").WithID(10)
	sp.Tag = "t"
	var m map[string]any
	if err := json.Unmarshal(AppendSpanJSON(nil, sp), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, AppendSpanJSON(nil, sp))
	}
	want := map[string]any{
		"span": 10.0, "parent": 9.0, "name": "sched",
		"start_us": 1500.0, "end_us": 2500.0, "tag": "t",
		"req": 42.0, "cluster": 1.0, "node": 3.0, "service": 4.0,
		"class": "LC", "decision": 7.0, "detail": "d",
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("field %s = %v, want %v (%v)", k, m[k], v, m)
		}
	}
}

func TestSpanJSONOmitsSentinels(t *testing.T) {
	out := string(AppendSpanJSON(nil, *Sp(SpanExec, 0, time.Millisecond).WithID(1)))
	for _, forbidden := range []string{`"req"`, `"node"`, `"cluster"`, `"service"`, `"class"`, `"decision"`, `"detail"`, `"parent"`, `"tag"`} {
		if strings.Contains(out, forbidden) {
			t.Fatalf("sentinel field %s encoded: %s", forbidden, out)
		}
	}
}

func TestDecisionJSONRoundTrip(t *testing.T) {
	d := Decision{
		ID: 5, At: 2 * time.Millisecond, Algo: "DSS-LC", Phase: PhaseOverflow,
		Cluster: 1, Svc: 2, Batch: 10, Routed: 8, GraphNodes: 7, GraphEdges: 9,
		Candidates: []Candidate{
			{Node: 3, Capacity: 4, CostUS: 150, LinkCap: 10, Flow: 8},
			{Node: 4, Capacity: 0, Reject: RejectNoCapacity},
		},
	}
	var m map[string]any
	if err := json.Unmarshal(AppendDecisionJSON(nil, d), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, AppendDecisionJSON(nil, d))
	}
	if m["decision"] != 5.0 || m["algo"] != "DSS-LC" || m["phase"] != "overflow" ||
		m["at_us"] != 2000.0 || m["graph_nodes"] != 7.0 {
		t.Fatalf("fields: %v", m)
	}
	cands := m["cands"].([]any)
	if len(cands) != 2 {
		t.Fatalf("cands: %v", cands)
	}
	c1 := cands[1].(map[string]any)
	if c1["reject"] != RejectNoCapacity {
		t.Fatalf("reject: %v", c1)
	}
}

// TestSpanNullSinkZeroAlloc pins the acceptance criterion: span
// begin/end through a live tracer with the NullSink allocates nothing.
func TestSpanNullSinkZeroAlloc(t *testing.T) {
	tr := NewTracer(fixedClock(0), NullSink{})
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.RequestSpanID(17)
		tr.EmitSpan(Sp(SpanSched, 0, time.Millisecond).Child(id).Req(17).
			Node(3).Clu(1).Service(2).Cls("LC").Dec(4))
		tr.EmitSpan(Sp(SpanRequest, 0, time.Millisecond).WithID(id).Req(17).Cls("LC"))
	})
	if allocs != 0 {
		t.Fatalf("null-sink span emit allocates %.1f per op, want 0", allocs)
	}
}

func TestWriterSinkSpanNDJSON(t *testing.T) {
	var buf bytes.Buffer
	sink := NewWriterSink(&buf)
	tr := NewTracer(fixedClock(0), sink)
	tr.EmitSpan(Sp(SpanExec, 0, time.Millisecond).Req(1).Node(2))
	d := Decision{Algo: "DSS-LC", Cluster: 0, Svc: 1}
	tr.EmitDecision(&d)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d invalid: %v", lines, err)
		}
		lines++
	}
	if lines != 2 || sink.Lines != 2 || sink.Dropped != 0 {
		t.Fatalf("lines=%d sink.Lines=%d dropped=%d", lines, sink.Lines, sink.Dropped)
	}
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct{ budget int }

var errDisk = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, errDisk
	}
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errDisk
	}
	w.budget -= len(p)
	return len(p), nil
}

// TestWriterSinkSurfacesWriteErrors pins the satellite fix: write
// failures are counted and surfaced, not silently dropped.
func TestWriterSinkSurfacesWriteErrors(t *testing.T) {
	sink := NewWriterSink(&failingWriter{budget: 0})
	tr := NewTracer(fixedClock(0), sink)
	for i := 0; i < 5; i++ {
		tr.Emit(Ev(EvStart).Req(int64(i)))
	}
	// The bufio layer absorbs writes until its buffer fills, so force
	// the flush path to observe the error deterministically.
	if err := sink.Flush(); err == nil {
		t.Fatal("flush swallowed the write error")
	}
	if sink.Err() == nil {
		t.Fatal("Err() lost the write error")
	}
	tr.Emit(Ev(EvStart).Req(99))
	if err := sink.Flush(); err == nil {
		t.Fatal("error must be sticky across flushes")
	}
	if sink.Dropped == 0 {
		t.Fatalf("dropped counter not incremented: %+v", sink.Dropped)
	}
	if sink.Lines >= 6 {
		t.Fatalf("failed records still counted as written lines: %d", sink.Lines)
	}
}

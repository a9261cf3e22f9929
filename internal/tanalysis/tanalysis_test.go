package tanalysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func clockAt(at time.Duration) func() time.Duration {
	return func() time.Duration { return at }
}

// buildTrace writes a small but complete NDJSON stream through the real
// WriterSink: two requests with full span trees (one satisfied, one
// violated), a decision, and a few point events.
func buildTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewWriterSink(&buf)
	tr := obs.NewTracer(clockAt(5*time.Millisecond), sink)

	d := obs.Decision{
		Algo: "DSS-LC", Phase: obs.PhaseImmediate, Cluster: 0, Svc: 2,
		Batch: 2, Routed: 2, GraphNodes: 5, GraphEdges: 5,
		Candidates: []obs.Candidate{
			{Node: 3, Capacity: 4, CostUS: 150, LinkCap: 10, Flow: 2},
			{Node: 4, Capacity: 0, CostUS: 900, LinkCap: 10, Reject: obs.RejectNoCapacity},
		},
	}
	tr.EmitDecision(&d)

	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	emitReq := func(req int64, base int, detail string) {
		root := tr.RequestSpanID(req)
		tr.EmitSpan(obs.Sp(obs.SpanSched, ms(base), ms(base+2)).Child(root).Req(req).Clu(0).Node(3).Service(2).Cls("LC").Dec(d.ID))
		tr.EmitSpan(obs.Sp(obs.SpanTransit, ms(base+2), ms(base+3)).Child(root).Req(req).Clu(0).Node(3).Service(2).Cls("LC"))
		tr.EmitSpan(obs.Sp(obs.SpanQueue, ms(base+3), ms(base+4)).Child(root).Req(req).Clu(0).Node(3).Service(2).Cls("LC"))
		tr.EmitSpan(obs.Sp(obs.SpanExec, ms(base+4), ms(base+40)).Child(root).Req(req).Clu(0).Node(3).Service(2).Cls("LC"))
		tr.EmitSpan(obs.Sp(obs.SpanReturn, ms(base+40), ms(base+41)).Child(root).Req(req).Clu(0).Node(3).Service(2).Cls("LC"))
		tr.EmitSpan(obs.Sp(obs.SpanRequest, ms(base), ms(base+41)).WithID(root).Req(req).Clu(0).Node(3).Service(2).Cls("LC").Dec(d.ID).Note(detail))
	}
	emitReq(100, 0, "")
	emitReq(101, 2, "violated")
	tr.Emit(obs.Ev(obs.EvNodeFail).Node(3).Clu(0).Au(2))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestLoadClassifiesLines(t *testing.T) {
	tr, err := Load(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 12 || len(tr.Decisions) != 1 || len(tr.Events) != 1 || tr.Skipped != 0 {
		t.Fatalf("spans=%d decisions=%d events=%d skipped=%d",
			len(tr.Spans), len(tr.Decisions), len(tr.Events), tr.Skipped)
	}
	d := tr.Decisions[0]
	if d.Algo != "DSS-LC" || d.Phase != obs.PhaseImmediate || len(d.Cands) != 2 {
		t.Fatalf("decision mangled: %+v", d)
	}
	if d.Cands[1].Reject != obs.RejectNoCapacity {
		t.Fatalf("candidate reject lost: %+v", d.Cands[1])
	}
	if tr.Events[0].Kind != "node-fail" {
		t.Fatalf("event kind: %q", tr.Events[0].Kind)
	}
}

func TestRequestsAndTopK(t *testing.T) {
	tr, err := Load(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	rts := tr.Requests()
	if len(rts) != 2 {
		t.Fatalf("requests: %d", len(rts))
	}
	for _, rt := range rts {
		if len(rt.Children) != 5 {
			t.Fatalf("req %d has %d children", rt.Root.Req, len(rt.Children))
		}
		if rt.ChildSum() != rt.Root.Duration() {
			t.Fatalf("req %d: child sum %v != root %v", rt.Root.Req, rt.ChildSum(), rt.Root.Duration())
		}
		if rt.Root.Decision != tr.Decisions[0].ID {
			t.Fatalf("req %d not linked to decision", rt.Root.Req)
		}
	}
	top := tr.TopK(1)
	if len(top) != 1 || top[0].Root.Duration() != 41*time.Millisecond {
		t.Fatalf("topk wrong: %+v", top)
	}
	if !strings.Contains(top[0].BreakdownLine(), "exec 36ms") {
		t.Fatalf("breakdown: %s", top[0].BreakdownLine())
	}
}

func TestEpisodesAttributeDecisions(t *testing.T) {
	tr, err := Load(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	eps := tr.Episodes(obs.SLOConfig{})
	if len(eps) != 1 {
		t.Fatalf("expected one service with episodes, got %d", len(eps))
	}
	se := eps[0]
	if se.Service != 2 || len(se.Episodes) != 1 {
		t.Fatalf("episodes: %+v", se)
	}
	ep := se.Episodes[0]
	if ep.Violations != 1 || ep.DecisionTotal != 1 || len(ep.Decisions) != 1 {
		t.Fatalf("episode: %+v", ep)
	}
	if ep.Decisions[0] != tr.Decisions[0].ID {
		t.Fatalf("episode attributes decision %d, want %d", ep.Decisions[0], tr.Decisions[0].ID)
	}
	if tr.DecisionByID(ep.Decisions[0]) == nil {
		t.Fatal("DecisionByID lookup failed")
	}
}

// TestChromeRoundTrip pins the acceptance criterion: the Chrome export
// is valid trace_event JSON with the required ph/ts/pid/tid fields on
// every entry.
func TestChromeRoundTrip(t *testing.T) {
	tr, err := Load(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := tr.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(tr.Spans)+len(tr.Events) {
		t.Fatalf("trace events: %d, want %d", len(doc.TraceEvents), len(tr.Spans)+len(tr.Events))
	}
	var complete, instant int
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["dur"]; !ok && ev["name"] != "queue svc2" {
				// zero-duration spans legitimately omit dur
				t.Logf("span without dur: %v", ev)
			}
		case "i":
			instant++
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if complete != len(tr.Spans) || instant != len(tr.Events) {
		t.Fatalf("phases: X=%d i=%d", complete, instant)
	}
	// Timestamps are sorted (Perfetto requirement for unsorted-intolerant
	// consumers is lenient, but we emit sorted anyway).
	var last float64 = -1
	for _, ev := range doc.TraceEvents {
		ts := ev["ts"].(float64)
		if ts < last {
			t.Fatal("trace events not time-sorted")
		}
		last = ts
	}
}

func TestLoadSkipsForeignLines(t *testing.T) {
	in := strings.NewReader(`{"foo": 1}
not json at all
{"span":1,"name":"request","start_us":0,"end_us":1000,"req":5,"class":"LC"}
`)
	tr, err := Load(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 || tr.Skipped != 2 {
		t.Fatalf("spans=%d skipped=%d", len(tr.Spans), tr.Skipped)
	}
}

func TestLoadTruncatedTail(t *testing.T) {
	// A valid line followed by a partial line with no trailing newline:
	// the tail is discarded, flagged, and not counted in Skipped.
	in := strings.NewReader(`{"span":1,"name":"request","start_us":0,"end_us":1000,"req":5,"class":"LC"}
{"span":2,"name":"exec","sta`)
	tr, err := Load(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.TruncatedTail {
		t.Fatal("TruncatedTail not set for partial final line")
	}
	if len(tr.Spans) != 1 || tr.Skipped != 0 {
		t.Fatalf("spans=%d skipped=%d, want 1/0", len(tr.Spans), tr.Skipped)
	}
}

func TestLoadCompleteFinalLineWithoutNewline(t *testing.T) {
	// A complete JSON line that merely lacks the trailing newline is a
	// normal record, not a truncation.
	in := strings.NewReader(`{"span":1,"name":"request","start_us":0,"end_us":1000,"req":5,"class":"LC"}`)
	tr, err := Load(in)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TruncatedTail {
		t.Fatal("TruncatedTail set for a parseable final line")
	}
	if len(tr.Spans) != 1 || tr.Skipped != 0 {
		t.Fatalf("spans=%d skipped=%d, want 1/0", len(tr.Spans), tr.Skipped)
	}
}

func TestEmpty(t *testing.T) {
	tr, err := Load(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Empty() {
		t.Fatal("empty stream should report Empty()")
	}
	tr, err = Load(strings.NewReader("{\"foo\":1}\nnot json\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Empty() || tr.Skipped != 2 {
		t.Fatalf("foreign-only stream: empty=%v skipped=%d", tr.Empty(), tr.Skipped)
	}
	full, err := Load(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if full.Empty() {
		t.Fatal("populated trace should not report Empty()")
	}
}

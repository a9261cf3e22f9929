package obs

import (
	"strings"
	"testing"
	"time"
)

func digestEvent() Event {
	ev := *Ev(EvArrival).Req(1).Service(2).Note("x")
	ev.At = 3 * time.Millisecond
	ev.Seq = 1
	return ev
}

func feedDigest(s *DigestSink) {
	s.Record(digestEvent())
	s.RecordSpan(Span{ID: 7, ReqID: 1, Name: SpanExec, Start: time.Millisecond, End: 2 * time.Millisecond})
	s.RecordDecision(Decision{ID: 1, At: time.Millisecond, Algo: "dss-lc", Routed: 4})
}

func TestDigestSinkDeterministicAndOrderSensitive(t *testing.T) {
	a, b := NewDigestSink(nil), NewDigestSink(nil)
	feedDigest(a)
	feedDigest(b)
	if a.Sum() != b.Sum() {
		t.Fatalf("same records, different digests: %s vs %s", a.Sum(), b.Sum())
	}
	if a.Records() != 3 {
		t.Fatalf("records = %d, want 3", a.Records())
	}
	// Same records in a different order must change the digest: emission
	// order is part of the replay contract.
	c := NewDigestSink(nil)
	c.RecordDecision(Decision{ID: 1, At: time.Millisecond, Algo: "dss-lc", Routed: 4})
	c.Record(digestEvent())
	c.RecordSpan(Span{ID: 7, ReqID: 1, Name: SpanExec, Start: time.Millisecond, End: 2 * time.Millisecond})
	if c.Sum() == a.Sum() {
		t.Fatal("reordered records produced the same digest")
	}
	if len(a.Sum()) != 64 || strings.ToLower(a.Sum()) != a.Sum() {
		t.Fatalf("digest not lowercase sha256 hex: %q", a.Sum())
	}
}

func TestDigestSinkForwards(t *testing.T) {
	ring := NewRingSink(4)
	s := NewDigestSink(ring)
	feedDigest(s)
	if s.Records() != 3 {
		t.Fatalf("records = %d, want 3", s.Records())
	}
	if ev := ring.Events(); len(ev) != 1 || ev[0] != digestEvent() {
		t.Fatalf("forwarded events = %+v, want the one fed", ev)
	}
	if sp := ring.Spans(); len(sp) != 1 || sp[0].ID != 7 {
		t.Fatalf("forwarded spans = %+v, want span 7", sp)
	}
	if d := ring.Decisions(); len(d) != 1 || d[0].Routed != 4 {
		t.Fatalf("forwarded decisions = %+v, want the one fed", d)
	}
	// Forwarded as NDJSON: one line per record.
	var sb strings.Builder
	ws := NewWriterSink(&sb)
	s2 := NewDigestSink(ws)
	feedDigest(s2)
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if ws.Lines != 3 {
		t.Fatalf("writer lines = %d, want 3", ws.Lines)
	}
	if got := strings.Count(sb.String(), "\n"); got != 3 {
		t.Fatalf("NDJSON lines = %d, want 3", got)
	}
	if s2.Sum() != s.Sum() {
		t.Fatal("digest must not depend on the forwarding sink")
	}
}

func TestReportDigestNormalizesWallClock(t *testing.T) {
	mk := func(wall float64, sink *SinkStats) *Report {
		return &Report{
			System: "tango", ConfigDigest: "abc",
			Config:    map[string]string{"seed": "1"},
			VirtualMs: 1000, WallMs: wall,
			Phi:         0.97,
			Series:      map[string][]float64{"phi": {1, 0.97}},
			EventCounts: map[string]uint64{"arrival": 10},
			Sink:        sink,
		}
	}
	d1 := ReportDigest(mk(12.5, nil))
	d2 := ReportDigest(mk(9000, &SinkStats{Events: 10, Lines: 10}))
	if d1 != d2 {
		t.Fatalf("wall-clock fields leaked into report digest: %s vs %s", d1, d2)
	}
	// A behavioural difference must change the digest.
	r3 := mk(12.5, nil)
	r3.Phi = 0.5
	if ReportDigest(r3) == d1 {
		t.Fatal("phi change did not change report digest")
	}
}

func TestReportDigestStripsPerfData(t *testing.T) {
	mk := func() *Report {
		return &Report{
			System: "tango", ConfigDigest: "abc",
			VirtualMs: 1000, Phi: 0.97,
			Series:      map[string][]float64{"phi": {1, 0.97}},
			Metrics:     []MetricSample{{Name: "tango_requests_arrived_total", Value: 10}},
			EventCounts: map[string]uint64{"arrival": 10},
		}
	}
	base := ReportDigest(mk())

	// Perf section, perf_-prefixed metrics and perf_-prefixed series are
	// host wall-clock facts: none may perturb the digest.
	r := mk()
	r.Perf = &PerfSection{
		Phases:  []PhasePerf{{Phase: "solve/mcnf", Calls: 3, TotalNs: 12345}},
		Runtime: map[string]float64{"perf_goroutines": 9},
	}
	r.Series[PerfMetricPrefix+"heap_live_bytes"] = []float64{1, 2, 3}
	r.Metrics = append(r.Metrics, MetricSample{Name: PerfMetricPrefix + "goroutines", Value: 9})
	if got := ReportDigest(r); got != base {
		t.Fatalf("perf data leaked into report digest: %s vs %s", got, base)
	}
	// Stripping must not mutate the live report.
	if r.Perf == nil || len(r.Series) != 2 || len(r.Metrics) != 2 {
		t.Fatal("ReportDigest mutated the report it was given")
	}
	// A non-perf metric still changes the digest.
	r2 := mk()
	r2.Metrics = append(r2.Metrics, MetricSample{Name: "tango_lc_satisfied_total", Value: 1})
	if ReportDigest(r2) == base {
		t.Fatal("non-perf metric change did not change report digest")
	}
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func fixedClock(at time.Duration) func() time.Duration {
	return func() time.Duration { return at }
}

func TestKindNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < kindCount; k++ {
		n := k.String()
		if n == "" || n == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[n] {
			t.Fatalf("duplicate kind name %q", n)
		}
		seen[n] = true
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should render unknown")
	}
}

func TestEvSentinelsAndChaining(t *testing.T) {
	ev := Ev(EvStart)
	if ev.ReqID != -1 || ev.NodeID != -1 || ev.Cluster != -1 || ev.Svc != -1 {
		t.Fatalf("sentinels not set: %+v", ev)
	}
	ev = ev.Req(7).Node(3).Clu(1).Service(2).Cls("LC").Val(2.5).Au(9).Note("x")
	if ev.ReqID != 7 || ev.NodeID != 3 || ev.Cluster != 1 || ev.Svc != 2 ||
		ev.Class != "LC" || ev.Value != 2.5 || ev.Aux != 9 || ev.Detail != "x" {
		t.Fatalf("chaining lost fields: %+v", ev)
	}
}

func TestAppendJSONParses(t *testing.T) {
	ev := Ev(EvFinish).Req(42).Node(3).Clu(1).Service(4).Cls("LC").Val(123.5).Au(1)
	ev.Seq = 9
	ev.At = 1500 * time.Microsecond
	ev.Tag = `q"uo\te`
	ev.Detail = "line\nbreak"
	var m map[string]any
	if err := json.Unmarshal(AppendJSON(nil, *ev), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, AppendJSON(nil, *ev))
	}
	if m["kind"] != "finish" || m["req"] != 42.0 || m["at_us"] != 1500.0 {
		t.Fatalf("wrong fields: %v", m)
	}
	if m["tag"] != `q"uo\te` || m["detail"] != "line\nbreak" {
		t.Fatalf("escaping broken: %v", m)
	}
}

func TestAppendJSONOmitsSentinels(t *testing.T) {
	out := string(AppendJSON(nil, *Ev(EvNodeFail)))
	for _, forbidden := range []string{`"req"`, `"node"`, `"cluster"`, `"service"`, `"class"`, `"value"`, `"aux"`, `"detail"`, `"tag"`} {
		if strings.Contains(out, forbidden) {
			t.Fatalf("sentinel field %s encoded: %s", forbidden, out)
		}
	}
}

func TestRingSinkWraps(t *testing.T) {
	s := NewRingSink(3)
	for i := 0; i < 5; i++ {
		ev := Ev(EvArrival)
		ev.Seq = uint64(i)
		s.Record(*ev)
	}
	evs := s.Events()
	if s.Total() != 5 || len(evs) != 3 {
		t.Fatalf("total=%d len=%d", s.Total(), len(evs))
	}
	for i, want := range []uint64{2, 3, 4} {
		if evs[i].Seq != want {
			t.Fatalf("ring order: got %d want %d", evs[i].Seq, want)
		}
	}
}

func TestWriterSinkNDJSON(t *testing.T) {
	var buf bytes.Buffer
	sink := NewWriterSink(&buf)
	tr := NewTracer(fixedClock(time.Second), sink)
	tr.Emit(Ev(EvArrival).Req(1).Clu(0).Cls("LC"))
	tr.Emit(Ev(EvDispatch).Req(1).Node(2).Val(0.8))
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
		if m["at_us"] != 1e6 {
			t.Fatalf("clock not stamped: %v", m)
		}
		lines++
	}
	if lines != 2 || sink.Lines != 2 {
		t.Fatalf("lines=%d sink.Lines=%d", lines, sink.Lines)
	}
}

func TestTracerCountsAndTag(t *testing.T) {
	ring := NewRingSink(10)
	tr := NewTracer(fixedClock(0), ring)
	tr.SetTag("sysA")
	tr.Emit(Ev(EvStart))
	tr.Emit(Ev(EvStart))
	tr.Emit(Ev(EvFinish))
	if tr.Emitted() != 3 {
		t.Fatalf("emitted = %d, want 3", tr.Emitted())
	}
	c := tr.Counts()
	if c["start"] != 2 || c["finish"] != 1 || len(c) != 2 {
		t.Fatalf("Counts map: %v", c)
	}
	evs := ring.Events()
	if evs[0].Tag != "sysA" || evs[0].Seq != 0 || evs[2].Seq != 2 {
		t.Fatalf("stamping wrong: %+v", evs)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	tr.Emit(Ev(EvStart)) // must not panic
	if tr.Emitted() != 0 || tr.Counts() != nil {
		t.Fatal("nil tracer accumulated state")
	}
}

func TestNilSinkFallsBackToNull(t *testing.T) {
	tr := NewTracer(fixedClock(0), nil)
	tr.Emit(Ev(EvStart))
	if tr.Counts()[EvStart.String()] != 1 {
		t.Fatal("counting broken with nil sink")
	}
}

// TestNullSinkZeroAlloc pins the tentpole's hot-path contract: emitting
// through a live tracer with the null sink performs no heap allocation.
func TestNullSinkZeroAlloc(t *testing.T) {
	tr := NewTracer(fixedClock(5*time.Millisecond), NullSink{})
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Ev(EvStart).Req(17).Node(3).Clu(1).Service(2).Cls("LC").Val(500).Au(12))
	})
	if allocs != 0 {
		t.Fatalf("null-sink emit allocates %.1f per op, want 0", allocs)
	}
}

// TestWriterSinkSteadyStateAllocs verifies the NDJSON encoder reuses its
// scratch buffer once warmed up.
func TestWriterSinkSteadyStateAllocs(t *testing.T) {
	sink := NewWriterSink(&countingWriter{})
	tr := NewTracer(fixedClock(0), sink)
	tr.Emit(Ev(EvFinish).Req(1).Node(2).Val(123.456)) // warm the scratch buffer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Ev(EvFinish).Req(1).Node(2).Val(123.456))
	})
	if allocs > 0.5 {
		t.Fatalf("writer sink steady state allocates %.1f per op", allocs)
	}
}

// countingWriter discards writes without buffering (so bufio flushes
// don't hit a growing buffer).
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func BenchmarkEmitNullSink(b *testing.B) {
	tr := NewTracer(fixedClock(0), NullSink{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Ev(EvStart).Req(int64(i)).Node(3).Val(500))
	}
}

func BenchmarkEmitWriterSink(b *testing.B) {
	tr := NewTracer(fixedClock(0), NewWriterSink(&countingWriter{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Ev(EvFinish).Req(int64(i)).Node(3).Val(123.5).Au(1))
	}
}

package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestWindowEviction(t *testing.T) {
	w := NewWindow(100 * time.Millisecond)
	w.Observe(0, 1)
	w.Observe(50*time.Millisecond, 2)
	w.Observe(100*time.Millisecond, 3)
	if len(w.samples) != 2 { // sample at t=0 is evicted at t=100ms (at <= now-span)
		t.Fatalf("len = %d, want 2", len(w.samples))
	}
	w.Observe(200*time.Millisecond, 4)
	if len(w.samples) != 1 {
		t.Fatalf("len = %d, want 1", len(w.samples))
	}
}

func TestWindowPercentile(t *testing.T) {
	w := NewWindow(time.Second)
	for i := 1; i <= 100; i++ {
		w.Observe(time.Duration(i)*time.Millisecond, float64(i))
	}
	p95, ok := w.Percentile(95)
	if !ok || p95 != 95 {
		t.Fatalf("p95 = %v %v, want 95", p95, ok)
	}
	p50, _ := w.Percentile(50)
	if p50 != 50 {
		t.Fatalf("p50 = %v, want 50", p50)
	}
	p100, _ := w.Percentile(100)
	if p100 != 100 {
		t.Fatalf("p100 = %v", p100)
	}
}

func TestWindowEmptyPercentile(t *testing.T) {
	w := NewWindow(time.Second)
	if _, ok := w.Percentile(95); ok {
		t.Fatal("empty window returned a percentile")
	}
}

func TestWindowPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero span":      func() { NewWindow(0) },
		"bad percentile": func() { w := NewWindow(time.Second); w.Observe(0, 1); w.Percentile(0) },
		"time backwards": func() { w := NewWindow(time.Second); w.Observe(10, 1); w.Observe(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQoSCounter(t *testing.T) {
	q := &QoSCounter{}
	if q.Rate() != 1 {
		t.Fatal("empty counter should report rate 1")
	}
	q.Arrived = 10
	q.Completed = 8
	q.Satisfied = 6
	q.Abandoned = 2
	if q.Rate() != 0.6 {
		t.Fatalf("Rate = %v", q.Rate())
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "x"}
	if s.Mean() != 0 || s.Sum() != 0 {
		t.Fatal("empty series stats should be 0")
	}
	s.Append(1)
	s.Append(3)
	if s.Mean() != 2 || s.Sum() != 4 {
		t.Fatalf("stats = %v %v", s.Mean(), s.Sum())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "algo", "qos", "tput")
	tb.AddRowF("DSS-LC", 0.95, 123)
	tb.AddRowF("k8s-native", 0.8, int64(99))
	out := tb.String()
	if !strings.Contains(out, "== Fig X ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "DSS-LC") || !strings.Contains(out, "0.95") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// all data lines equal width
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("misaligned header/separator:\n%s", out)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatal("short row dropped")
	}
}

func TestTableRowOverflowPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddRow": func() {
			tb := NewTable("", "a", "b")
			tb.AddRow("x", "y", "overflow")
		},
		"AddRowF": func() {
			tb := NewTable("fig", "a", "b")
			tb.AddRowF("x", 1.0, 2) // third cell must not be silently lost
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: row wider than columns did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTableDurationFormatting(t *testing.T) {
	tb := NewTable("", "op", "lat")
	tb.AddRowF("dvpa", 23*time.Millisecond)
	if !strings.Contains(tb.String(), "23ms") {
		t.Fatalf("duration not formatted: %s", tb.String())
	}
}

// Property: Percentile matches a direct nearest-rank computation over the
// currently retained samples, for random inputs.
func TestQuickPercentileNearestRank(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%100) + 1
		w := NewWindow(time.Hour) // no eviction
		var vals []float64
		for i := 0; i < k; i++ {
			v := rng.Float64() * 1000
			vals = append(vals, v)
			w.Observe(time.Duration(i)*time.Millisecond, v)
		}
		sort.Float64s(vals)
		for _, p := range []float64{1, 25, 50, 95, 99, 100} {
			got, ok := w.Percentile(p)
			if !ok {
				return false
			}
			rank := int((p/100)*float64(k) + 0.9999999)
			if rank < 1 {
				rank = 1
			}
			if rank > k {
				rank = k
			}
			if got != vals[rank-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWindowPercentile exercises the steady-state query path of the
// QoS re-assurance loop: a full window queried for p95 every tick. The
// reusable scratch buffer makes this 0 allocs/op after the first call
// (previously one fresh []float64 per call).
func BenchmarkWindowPercentile(b *testing.B) {
	w := NewWindow(time.Hour)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		w.Observe(time.Duration(i)*time.Millisecond, rng.Float64()*1000)
	}
	w.Percentile(95) // grow the scratch buffer once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.Percentile(95); !ok {
			b.Fatal("empty window")
		}
	}
}

func TestWindowPercentileNoSteadyStateAllocs(t *testing.T) {
	w := NewWindow(time.Hour)
	for i := 0; i < 512; i++ {
		w.Observe(time.Duration(i)*time.Millisecond, float64(i%97))
	}
	w.Percentile(95) // warm the scratch buffer
	if avg := testing.AllocsPerRun(100, func() { w.Percentile(95) }); avg != 0 {
		t.Fatalf("Percentile allocates %v per call in steady state, want 0", avg)
	}
}

// Property: the window never retains samples older than span, and always
// retains the newest sample.
func TestQuickWindowRetention(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := time.Duration(rng.Intn(100)+1) * time.Millisecond
		w := NewWindow(span)
		now := time.Duration(0)
		for i := 0; i < 200; i++ {
			now += time.Duration(rng.Intn(20)) * time.Millisecond
			w.Observe(now, float64(i))
			if len(w.samples) < 1 {
				return false
			}
			for _, s := range w.samples {
				if s.at <= now-span {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

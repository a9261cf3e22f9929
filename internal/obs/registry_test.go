package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestLabelsString(t *testing.T) {
	if s := (Labels{}).String(); s != "" {
		t.Fatalf("empty labels rendered %q", s)
	}
	l := Labels{Cluster: "c1", Service: "lc-video"}
	if got := l.String(); got != `{cluster="c1",service="lc-video"}` {
		t.Fatalf("got %q", got)
	}
	if got := (Labels{Node: "3"}).String(); got != `{node="3"}` {
		t.Fatalf("got %q", got)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", Labels{Cluster: "c0"})
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %v", c.Value())
	}
	if r.Counter("requests_total", Labels{Cluster: "c0"}) != c {
		t.Fatal("get-or-create returned a new counter")
	}
	g := r.Gauge("util", Labels{Node: "1"})
	g.Set(0.5)
	if g.Value() != 0.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add should panic")
		}
	}()
	c.Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", Labels{})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as gauge should panic")
		}
	}()
	r.Gauge("m", Labels{})
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", Labels{Service: "lc-audio"}, []float64{10, 20, 40})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 40)) // uniform over [0,40)
	}
	snap := h.snapshot(nil)
	if snap.Count != 100 {
		t.Fatalf("count = %d", snap.Count)
	}
	if m := snap.Sum / float64(snap.Count); math.Abs(m-17.5) > 0.5 {
		t.Fatalf("mean = %v", m)
	}
	q50 := h.Quantile(0.5)
	if q50 < 10 || q50 > 30 {
		t.Fatalf("q50 = %v", q50)
	}
	// Values beyond the last bound clamp to it.
	h.Observe(1e9)
	if q := h.Quantile(1); q != 40 {
		t.Fatalf("q100 = %v, want clamp to 40", q)
	}
	if q := (&Histogram{}).Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %v, want NaN", q)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	mk := func() *Histogram {
		r := NewRegistry()
		return r.Histogram("lat_ms", Labels{}, []float64{10, 20, 40})
	}

	// Empty histogram: every quantile is explicitly NaN — never a panic,
	// never a fabricated 0 — including out-of-range q.
	empty := mk()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if v := empty.Quantile(q); !math.IsNaN(v) {
			t.Fatalf("empty Quantile(%v) = %v, want NaN", q, v)
		}
	}

	// q <= 0 clamps to the lower edge of the first occupied bucket,
	// q > 1 clamps to q=1.
	h := mk()
	for i := 0; i < 4; i++ {
		h.Observe(15) // all in the (10,20] bucket
	}
	if v := h.Quantile(0); v != 10 {
		t.Fatalf("Quantile(0) = %v, want bucket floor 10", v)
	}
	if v := h.Quantile(-0.3); v != 10 {
		t.Fatalf("Quantile(-0.3) = %v, want clamp to 10", v)
	}
	if v, v1 := h.Quantile(7), h.Quantile(1); v != v1 {
		t.Fatalf("Quantile(7) = %v, want clamp to Quantile(1) = %v", v, v1)
	}

	// Single occupied bucket: linear interpolation inside (10,20].
	// rank(q=0.5) = 2 of 4 observations → 10 + 10*2/4 = 15.
	if v := h.Quantile(0.5); v != 15 {
		t.Fatalf("single-bucket Quantile(0.5) = %v, want 15", v)
	}
	if v := h.Quantile(0.25); v != 12.5 {
		t.Fatalf("single-bucket Quantile(0.25) = %v, want 12.5", v)
	}
	if v := h.Quantile(1); v != 20 {
		t.Fatalf("single-bucket Quantile(1) = %v, want 20", v)
	}

	// All observations in the +Inf overflow bucket: quantiles clamp to
	// the last finite bound rather than extrapolating.
	over := mk()
	for i := 0; i < 3; i++ {
		over.Observe(1e6)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if v := over.Quantile(q); v != 40 {
			t.Fatalf("overflow-only Quantile(%v) = %v, want clamp to 40", q, v)
		}
	}
}

func TestHistogramNaNObserve(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Observe(5)
	h.Observe(math.NaN())
	h.Observe(15)
	h.Observe(math.NaN())
	snap := h.snapshot(nil)
	if got := snap.Count; got != 2 {
		t.Fatalf("count = %d, want 2 (NaN observations must not count)", got)
	}
	if got := snap.Sum; got != 20 {
		t.Fatalf("sum = %v, want 20 (NaN observations must not corrupt sum)", got)
	}
	if got := h.NaNs(); got != 2 {
		t.Fatalf("NaNs = %d, want 2", got)
	}
	if q := h.Quantile(math.NaN()); !math.IsNaN(q) {
		t.Fatalf("Quantile(NaN) = %v, want NaN", q)
	}
	if q := h.Quantile(0.5); math.IsNaN(q) {
		t.Fatalf("Quantile(0.5) = NaN after NaN observes, want finite")
	}
}

func TestGatherAppendZeroAllocSteadyState(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", Labels{Cluster: "c0"})
	g := r.Gauge("util", Labels{Node: "1"})
	h := r.Histogram("lat", Labels{Service: "lc"}, []float64{1, 2, 4})
	c.Inc()
	g.Set(0.4)
	h.Observe(1.5)

	buf := r.GatherAppend(nil)
	want := r.Gather()
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(2.5)
		buf = r.GatherAppend(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("GatherAppend steady state allocates %.1f/op, want 0", allocs)
	}
	if len(buf) != len(want) {
		t.Fatalf("reused-buffer gather lost samples: %d vs %d", len(buf), len(want))
	}
	for i := range buf {
		if buf[i].Key() != want[i].Key() {
			t.Fatalf("sample %d key %q != %q", i, buf[i].Key(), want[i].Key())
		}
	}
}

func TestSampleKeyCached(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", Labels{Cluster: "c0", Service: "lc"}).Inc()
	s := r.Gather()[0]
	allocs := testing.AllocsPerRun(100, func() {
		if s.Key() == "" {
			t.Fatal("empty key")
		}
	})
	if allocs != 0 {
		t.Fatalf("cached Sample.Key allocates %.1f/op, want 0", allocs)
	}
	// Hand-built samples still render on demand.
	hand := Sample{Name: "x", Labels: Labels{Node: "2"}}
	if got := hand.Key(); got != `x{node="2"}` {
		t.Fatalf("fallback key = %q", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", Labels{Cluster: "c0"}).Add(3)
	r.Gauge("a_util", Labels{Node: "1"}).Set(0.25)
	h := r.Histogram("lat", Labels{Service: "lc"}, []float64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(100)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("families = %d, want 3", len(snap))
	}
	if snap[0].Name != "a_util" || snap[0].Kind != "gauge" {
		t.Fatalf("family 0 = %s/%s", snap[0].Name, snap[0].Kind)
	}
	if snap[1].Name != "b_total" || snap[1].Kind != "counter" {
		t.Fatalf("family 1 = %s/%s", snap[1].Name, snap[1].Kind)
	}
	if snap[1].Members[0].Value != 3 || snap[1].Members[0].LabelStr != `{cluster="c0"}` {
		t.Fatalf("counter member = %+v", snap[1].Members[0])
	}
	lat := snap[2]
	if lat.Name != "lat" || lat.Kind != "histogram" || lat.Members[0].Hist == nil {
		t.Fatalf("histogram family = %+v", lat)
	}
	hs := lat.Members[0].Hist
	if hs.Count != 3 || hs.Sum != 120 {
		t.Fatalf("hist snapshot count/sum = %d/%v", hs.Count, hs.Sum)
	}
	if len(hs.Counts) != 3 || hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Counts[2] != 1 {
		t.Fatalf("hist buckets = %v", hs.Counts)
	}
	// Snapshot is a copy: later observations must not leak in.
	h.Observe(1)
	if hs.Count != 3 {
		t.Fatal("snapshot aliases live histogram state")
	}
}

// TestConcurrentScrapeVsEmit exercises the scrape-races-engine contract
// under the race detector: writers hammer counters/gauges/histograms
// (and create new series) while readers Gather and Snapshot.
func TestConcurrentScrapeVsEmit(t *testing.T) {
	r := NewRegistry()
	const writers, iters = 4, 2000
	var writerWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			c := r.Counter("reqs_total", Labels{Cluster: "c0"})
			g := r.Gauge("util", Labels{Node: "0"})
			h := r.Histogram("lat", Labels{}, nil)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 100))
				if i%500 == 0 { // structural churn: new series mid-scrape
					r.Gauge("late", Labels{Node: string(rune('a' + w))}).Set(float64(i))
				}
			}
		}(w)
	}
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		var buf []Sample
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = r.GatherAppend(buf[:0])
			_ = r.Snapshot()
		}
	}()

	writerWG.Wait()
	close(stop)
	scraperWG.Wait()

	if got := r.Counter("reqs_total", Labels{Cluster: "c0"}).Value(); got != writers*iters {
		t.Fatalf("counter = %v, want %d (lost updates under contention)", got, writers*iters)
	}
	if got := r.Histogram("lat", Labels{}, nil).snapshot(nil).Count; got != writers*iters {
		t.Fatalf("histogram count = %v, want %d", got, writers*iters)
	}
}

func TestGatherDeterministicAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", Labels{Cluster: "c1"}).Inc()
	r.Counter("b_total", Labels{Cluster: "c0"}).Add(2)
	r.Gauge("a_util", Labels{Node: "0"}).Set(0.7)
	r.Histogram("lat", Labels{}, []float64{1, 2}).Observe(1.5)

	got := r.Gather()
	keys := make([]string, len(got))
	for i, s := range got {
		keys[i] = s.Key()
	}
	want := []string{
		`a_util{node="0"}`,
		`b_total{cluster="c1"}`, // member creation order within a family
		`b_total{cluster="c0"}`,
		"lat_count", "lat_sum", "lat_p95",
	}
	if strings.Join(keys, "|") != strings.Join(want, "|") {
		t.Fatalf("gather order:\n got %v\nwant %v", keys, want)
	}
	// A second Gather must be identical (determinism).
	again := r.Gather()
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("gather not deterministic at %d: %v vs %v", i, got[i], again[i])
		}
	}
}

func TestConfigDigestStable(t *testing.T) {
	a := ConfigDigest(map[string]string{"seed": "1", "system": "tango"})
	b := ConfigDigest(map[string]string{"system": "tango", "seed": "1"})
	if a != b {
		t.Fatalf("digest depends on map order: %s vs %s", a, b)
	}
	c := ConfigDigest(map[string]string{"system": "tango", "seed": "2"})
	if a == c {
		t.Fatal("digest ignores values")
	}
	if len(a) != 16 {
		t.Fatalf("digest %q not 16 hex chars", a)
	}
}

func TestReportWriteRoundTrip(t *testing.T) {
	rep := &Report{
		System:       "tango",
		ConfigDigest: "abc",
		Config:       map[string]string{"seed": "1"},
		Phi:          0.97,
		Series:       map[string][]float64{"qos-rate": {1, 0.9}},
		EventCounts:  map[string]uint64{"start": 10},
		TailLatencyMs: map[string]float64{
			"p95": 210,
		},
		Metrics: SamplesToReport([]Sample{{Name: "x", Labels: Labels{Node: "1"}, Value: 3}}),
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema {
		t.Fatalf("schema not defaulted: %q", back.Schema)
	}
	if back.Phi != 0.97 || back.EventCounts["start"] != 10 || back.Metrics[0].Labels != `{node="1"}` {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels identifies one time series within a metric family, mirroring
// the cluster/node/service label set the paper's Prometheus deployment
// scrapes. Empty fields are omitted from the rendered label string, so
// Labels is usable as a comparable map key at any granularity.
type Labels struct {
	Cluster string
	Node    string
	Shard   string
	Service string
}

// String renders the labels Prometheus-style: {cluster="c0",node="3"}.
// Empty label sets render as "". This allocates; scrape paths use the
// per-member key cached at series creation instead (see Sample.Key).
func (l Labels) String() string {
	if l == (Labels{}) {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	sep := ""
	add := func(k, v string) {
		if v == "" {
			return
		}
		b.WriteString(sep)
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(v)
		b.WriteByte('"')
		sep = ","
	}
	add("cluster", l.Cluster)
	add("node", l.Node)
	add("shard", l.Shard)
	add("service", l.Service)
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing value. It is safe for
// concurrent use: the simulation mutates it while a telemetry scrape
// reads it (float64 bits behind one atomic word, lock-free).
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (must be nonnegative).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("obs: counter decreased")
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down. Like Counter it is safe
// for concurrent scrape-vs-emit access.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefLatencyBuckets are the default histogram bounds in milliseconds,
// bracketing the paper's ~200–400 ms LC QoS targets.
var DefLatencyBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 200, 300, 400, 600, 1000, 2500}

// Histogram accumulates observations into fixed buckets (upper bounds,
// ascending) plus an implicit +Inf bucket. A mutex makes Observe safe
// against a concurrent scrape; the simulation hot path pays one
// uncontended lock per observation.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1, last is +Inf
	sum    float64
	n      uint64
	nans   uint64 // NaN observations dropped (they would corrupt sum)
}

// NewHistogram builds a standalone histogram (registry-free users like
// the SLO accountant). Nil bounds select DefLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value. NaN observations are dropped (counted in
// NaNs) instead of corrupting sum and the bucket layout.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if math.IsNaN(v) {
		h.nans++
		h.mu.Unlock()
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// NaNs returns how many NaN observations were dropped.
func (h *Histogram) NaNs() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nans
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the containing bucket, the way Prometheus'
// histogram_quantile does. An empty histogram or a NaN q yields NaN
// explicitly — never a panic or a fabricated 0. Observations beyond the
// last bound clamp to it.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) { // +Inf bucket: clamp to the last bound
			if len(h.bounds) == 0 {
				return math.NaN()
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-prev)/float64(c)
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is one histogram's state frozen at snapshot time.
// Counts are per-bucket (not cumulative); the last entry is +Inf.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// snapshot copies the histogram state under its lock. countsBuf is
// reused when large enough.
func (h *Histogram) snapshot(countsBuf []uint64) HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := countsBuf
	if cap(counts) < len(h.counts) {
		counts = make([]uint64, len(h.counts))
	}
	counts = counts[:len(h.counts)]
	copy(counts, h.counts)
	return HistogramSnapshot{Bounds: h.bounds, Counts: counts, Sum: h.sum, Count: h.n}
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// kindName maps metricKind to its OpenMetrics type string.
var kindName = [...]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}

// member is one series of a family. The rendered label string and the
// fully composed sample keys are cached at creation, so a scrape costs
// zero allocations per pre-existing series (satisfying the AllocsPerRun
// gate in registry_test.go).
type member struct {
	labels   Labels
	labelStr string
	m        any
	// keys are the Gather sample keys: one entry for counters/gauges,
	// three (count/sum/p95) for histograms.
	keys [3]string
}

type family struct {
	name    string
	kind    metricKind
	members map[Labels]*member
	order   []*member // insertion order for deterministic Gather
	// hname caches the expanded histogram sample names
	// (name_count/name_sum/name_p95) so Gather never concatenates.
	hname [3]string
}

// Registry holds metric families keyed by name. Writes from the
// simulation and reads from a telemetry scrape may race: structure
// (family/member creation, Gather, Snapshot) is guarded by a mutex and
// the values themselves are atomic (or lock-guarded for histograms).
// Handles returned by Counter/Gauge/Histogram are stable and should be
// cached by hot-path callers so per-event cost is one atomic update,
// not a map lookup under lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	sorted   []string // cached sort of order; nil when stale
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

func (r *Registry) family(name string, k metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, members: map[Labels]*member{}}
		if k == kindHistogram {
			f.hname = [3]string{name + "_count", name + "_sum", name + "_p95"}
		}
		r.families[name] = f
		r.order = append(r.order, name)
		r.sorted = nil
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	return f
}

func (f *family) member(l Labels, mk func() any) *member {
	m, ok := f.members[l]
	if !ok {
		m = &member{labels: l, labelStr: l.String(), m: mk()}
		switch f.kind {
		case kindHistogram:
			m.keys[0] = f.name + "_count" + m.labelStr
			m.keys[1] = f.name + "_sum" + m.labelStr
			m.keys[2] = f.name + "_p95" + m.labelStr
		default:
			m.keys[0] = f.name + m.labelStr
		}
		f.members[l] = m
		f.order = append(f.order, m)
	}
	return m
}

// Counter returns (creating on first use) the counter name{l}.
func (r *Registry) Counter(name string, l Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, kindCounter).member(l, func() any { return &Counter{} }).m.(*Counter)
}

// Gauge returns (creating on first use) the gauge name{l}.
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, kindGauge).member(l, func() any { return &Gauge{} }).m.(*Gauge)
}

// Histogram returns (creating on first use) the histogram name{l} with
// the given bucket bounds (DefLatencyBuckets when nil). Bounds are fixed
// at creation; later calls may pass nil.
func (r *Registry) Histogram(name string, l Labels, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, kindHistogram).member(l, func() any {
		return NewHistogram(bounds)
	}).m.(*Histogram)
}

// Sample is one gathered value.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64

	// key is the cached full series name; empty for hand-built Samples.
	key string
}

// Key returns the full series name: name + rendered labels. Samples
// produced by Gather carry the key pre-rendered (cached on the family
// member), so calling it costs nothing; hand-built samples fall back to
// rendering.
func (s Sample) Key() string {
	if s.key != "" {
		return s.key
	}
	return s.Name + s.Labels.String()
}

// sortedNames returns the family names sorted, rebuilding the cache
// only when a family was added. Caller holds r.mu.
func (r *Registry) sortedNames() []string {
	if r.sorted == nil {
		r.sorted = append(make([]string, 0, len(r.order)), r.order...)
		sort.Strings(r.sorted)
	}
	return r.sorted
}

// Gather flattens the registry into samples, families sorted by name and
// members in creation order. Histograms expand into three samples:
// <name>_count, <name>_sum and <name>_p95 (the paper's tail statistic;
// 0 while the histogram is empty, so reports stay finite).
func (r *Registry) Gather() []Sample { return r.GatherAppend(nil) }

// GatherAppend appends the gathered samples to dst and returns it.
// Steady-state scrapes that reuse dst perform zero heap allocations:
// every sample key is cached on its family member and the family sort
// order is cached until a new family appears.
func (r *Registry) GatherAppend(dst []Sample) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.sortedNames() {
		f := r.families[name]
		for _, mb := range f.order {
			switch m := mb.m.(type) {
			case *Counter:
				dst = append(dst, Sample{name, mb.labels, m.Value(), mb.keys[0]})
			case *Gauge:
				dst = append(dst, Sample{name, mb.labels, m.Value(), mb.keys[0]})
			case *Histogram:
				m.mu.Lock()
				count, sum := m.n, m.sum
				p95 := m.quantileLocked(0.95)
				m.mu.Unlock()
				if count == 0 {
					p95 = 0
				}
				dst = append(dst,
					Sample{f.hname[0], mb.labels, float64(count), mb.keys[0]},
					Sample{f.hname[1], mb.labels, sum, mb.keys[1]},
					Sample{f.hname[2], mb.labels, p95, mb.keys[2]},
				)
			}
		}
	}
	return dst
}

// MemberSnapshot is one series frozen at snapshot time. Hist is non-nil
// only for histogram families (Value then holds the sum).
type MemberSnapshot struct {
	Labels   Labels
	LabelStr string
	Value    float64
	Hist     *HistogramSnapshot
}

// FamilySnapshot is one metric family frozen at snapshot time.
type FamilySnapshot struct {
	Name    string
	Kind    string // "counter" | "gauge" | "histogram"
	Members []MemberSnapshot
}

// Snapshot freezes the whole registry: families sorted by name, members
// in creation order, values copied out under the registry lock so a
// telemetry scrape can safely race the running simulation. Unlike
// Gather it preserves metric kinds and full histogram bucket vectors,
// which is what the OpenMetrics encoder needs.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilySnapshot, 0, len(r.families))
	for _, name := range r.sortedNames() {
		f := r.families[name]
		fs := FamilySnapshot{Name: name, Kind: kindName[f.kind],
			Members: make([]MemberSnapshot, 0, len(f.order))}
		for _, mb := range f.order {
			ms := MemberSnapshot{Labels: mb.labels, LabelStr: mb.labelStr}
			switch m := mb.m.(type) {
			case *Counter:
				ms.Value = m.Value()
			case *Gauge:
				ms.Value = m.Value()
			case *Histogram:
				h := m.snapshot(nil)
				ms.Hist = &h
				ms.Value = h.Sum
			}
			fs.Members = append(fs.Members, ms)
		}
		out = append(out, fs)
	}
	return out
}

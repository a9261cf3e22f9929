// Package metrics is the measurement substrate standing in for the
// Prometheus + QoS-detector pipeline of Figure 3. It provides sliding
// latency windows with tail-percentile queries (the paper samples the
// 95th percentile over 100 ms windows), QoS-satisfaction accounting,
// throughput counters and period-indexed time series matching the 800 ms
// collection periods used in §6.2.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Window keeps the samples observed during the most recent span of
// virtual time and answers percentile queries over them. It implements
// the 100 ms collection window of the QoS re-assurance mechanism (§4.3).
type Window struct {
	span    time.Duration
	samples []sample
	// scratch is reused across Percentile calls: the QoS re-assurance
	// loop queries every service's window each 100 ms tick, so a fresh
	// sort buffer per call dominated the collector's allocations.
	scratch []float64
}

type sample struct {
	at time.Duration
	v  float64
}

// NewWindow creates a sliding window covering span of virtual time.
func NewWindow(span time.Duration) *Window {
	if span <= 0 {
		panic("metrics: window span must be positive")
	}
	return &Window{span: span}
}

// Observe records value v at virtual time now. Times must be
// nondecreasing across calls.
func (w *Window) Observe(now time.Duration, v float64) {
	if n := len(w.samples); n > 0 && now < w.samples[n-1].at {
		panic(fmt.Sprintf("metrics: time went backwards: %v < %v", now, w.samples[n-1].at))
	}
	w.samples = append(w.samples, sample{now, v})
	w.evict(now)
}

func (w *Window) evict(now time.Duration) {
	cut := now - w.span
	i := 0
	for i < len(w.samples) && w.samples[i].at <= cut {
		i++
	}
	if i > 0 {
		w.samples = append(w.samples[:0], w.samples[i:]...)
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) of the samples in
// the window using nearest-rank, and false if the window is empty.
func (w *Window) Percentile(p float64) (float64, bool) {
	if len(w.samples) == 0 {
		return 0, false
	}
	vals := w.scratch[:0]
	for _, s := range w.samples {
		vals = append(vals, s.v)
	}
	w.scratch = vals
	return PercentileInPlace(vals, p), true
}

// PercentileInPlace returns the p-th percentile (0 < p <= 100) of vals
// using the nearest-rank method, sorting vals in place. It is the one
// shared tail-latency kernel: Window.Percentile and the core report
// percentiles all route through it. Returns 0 for an empty slice.
func PercentileInPlace(vals []float64, p float64) float64 {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of (0,100]", p))
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return SortedPercentile(vals, p)
}

// SortedPercentile returns the p-th nearest-rank percentile of an
// already ascending-sorted slice. Returns 0 for an empty slice.
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// QoSCounter tracks the QoS-guarantee satisfaction rate φ of Eq. 1:
// completed LC requests meeting their tail-latency target over all
// arrived LC requests.
type QoSCounter struct {
	Arrived   int64
	Completed int64
	Satisfied int64
	Abandoned int64
}

// Rate returns φ = satisfied/arrived (1 if nothing arrived yet).
func (q *QoSCounter) Rate() float64 {
	if q.Arrived == 0 {
		return 1
	}
	return float64(q.Satisfied) / float64(q.Arrived)
}

// Series is a period-indexed time series (one value per 800 ms collection
// period in the paper's experiments).
type Series struct {
	Name   string
	Values []float64
}

// Append adds one period's value.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Mean returns the series average (0 for empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Sum returns the series total.
func (s *Series) Sum() float64 {
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum
}

// Table renders rows of labelled values as an aligned text table; the
// benchmark harness prints paper figures through it.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells are blank. Passing more cells
// than the table has columns is a programming error and panics — the
// figures silently losing columns is exactly the bug this guards
// against (AddRowF forwards every argument here).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("metrics: table %q has %d columns but row has %d cells",
			t.Title, len(t.Columns), len(cells)))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddRowF appends a row of formatted values: strings pass through,
// float64 format as %.4g, ints as %d.
func (t *Table) AddRowF(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.4g", v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		case time.Duration:
			row = append(row, v.String())
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Metric is one parsed sample line.
type Metric struct {
	Name   string
	Labels map[string]string // nil when unlabelled
	Value  float64
}

// Label returns the named label ("" when absent).
func (m Metric) Label(k string) string { return m.Labels[k] }

// Scrape is one parsed OpenMetrics document.
type Scrape struct {
	// Types maps family name (as written in the # TYPE line) to
	// "counter" | "gauge" | "histogram" | ...
	Types   map[string]string
	Samples []Metric
	// SawEOF reports whether the document carried the # EOF terminator —
	// its absence means a truncated scrape.
	SawEOF bool
}

// Value returns the first sample with the given name whose labels all
// match want (extra labels on the sample are allowed; nil matches any).
func (s *Scrape) Value(name string, want map[string]string) (float64, bool) {
	for _, m := range s.Samples {
		if m.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if m.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return m.Value, true
		}
	}
	return 0, false
}

// Select returns every sample with the given name, in document order.
func (s *Scrape) Select(name string) []Metric {
	var out []Metric
	for _, m := range s.Samples {
		if m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// ParseText parses an OpenMetrics/Prometheus text document. It is a
// strict-enough validator for the exposition this package writes: every
// non-comment line must be `name[{labels}] value`, label values must be
// quoted, and the document should end with # EOF (recorded in SawEOF,
// not an error, so Prometheus-flavoured output also parses).
func ParseText(r io.Reader) (*Scrape, error) {
	s := &Scrape{Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				s.SawEOF = true
				continue
			}
			fields := strings.Fields(line)
			// "# TYPE <name> <kind>"
			if len(fields) >= 4 && fields[1] == "TYPE" {
				s.Types[fields[2]] = fields[3]
			}
			continue
		}
		if s.SawEOF {
			return nil, fmt.Errorf("line %d: sample after # EOF", lineNo)
		}
		m, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		s.Samples = append(s.Samples, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseSample(line string) (Metric, error) {
	var m Metric
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return m, fmt.Errorf("no value: %q", line)
	} else {
		m.Name = rest[:i]
		rest = rest[i:]
	}
	if m.Name == "" {
		return m, fmt.Errorf("empty metric name: %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return m, fmt.Errorf("unterminated labels: %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return m, fmt.Errorf("%v: %q", err, line)
		}
		m.Labels = labels
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return m, fmt.Errorf("no value: %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return m, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	m.Value = v
	return m, nil
}

func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return nil, fmt.Errorf("label without value")
		}
		key := body[:eq]
		body = body[eq+1:]
		if !strings.HasPrefix(body, `"`) {
			return nil, fmt.Errorf("unquoted label value")
		}
		end := strings.Index(body[1:], `"`)
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value")
		}
		labels[key] = body[1 : 1+end]
		body = body[2+end:]
		body = strings.TrimPrefix(body, ",")
	}
	return labels, nil
}

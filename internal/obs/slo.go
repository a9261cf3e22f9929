package obs

import (
	"math"
	"sort"
	"time"
)

// finiteOrZero maps the NaN an empty Histogram quantile reports to 0,
// keeping JSON report documents finite.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Per-service SLO accounting: rolling Φ over a sliding window, run-level
// latency percentiles from a Histogram, and violation episodes — maximal
// stretches of QoS-violating outcomes — annotated with the scheduling
// decisions active around them. This is the in-process half of the
// explainability layer; the tango-trace CLI recomputes the same
// episodes offline from the NDJSON stream.

const (
	// sloWindow is the rolling-Φ sliding window.
	sloWindow = 5 * time.Second
	// maxEpisodeDecisions caps the decision IDs retained per episode;
	// the total count is always exact.
	maxEpisodeDecisions = 64
)

// SLOConfig shapes the accountant. Zero values select the defaults.
type SLOConfig struct {
	// Gap closes an episode when the next violation is further away
	// than this (default 1 s).
	Gap time.Duration
	// Lookback attributes decisions made up to this long before an
	// episode's first violation (default 1 s): the decision that routed
	// a request precedes its violating completion.
	Lookback time.Duration
}

func (c *SLOConfig) defaults() {
	if c.Gap <= 0 {
		c.Gap = time.Second
	}
	if c.Lookback <= 0 {
		c.Lookback = time.Second
	}
}

// Episode is one violation episode: Start/End bound the violating
// outcomes, Violations counts them, Decisions lists the scheduling
// decisions issued in [Start-Lookback, End] (capped; DecisionTotal is
// exact).
type Episode struct {
	Start         time.Duration
	End           time.Duration
	Violations    int64
	Decisions     []int64
	DecisionTotal int64
}

type satSample struct {
	at  time.Duration
	sat bool
}

type decisionStamp struct {
	id int64
	at time.Duration
}

// ServiceSLO is the per-service accounting state.
type ServiceSLO struct {
	Service int
	Name    string
	Class   string

	Resolved  int64 // completed + abandoned LC outcomes observed
	Completed int64
	Satisfied int64
	Violated  int64 // resolved - satisfied

	Latency  *Histogram // completed-outcome latency, ms
	Episodes []Episode

	roll     []satSample
	open     bool
	epStart  time.Duration
	epLast   time.Duration
	epCount  int64
	epDecs   []int64
	epDecTot int64
	epMaxDec int64 // highest decision ID already attributed
}

// Phi returns the cumulative satisfaction rate over resolved outcomes
// (1 when nothing resolved).
func (s *ServiceSLO) Phi() float64 {
	if s.Resolved == 0 {
		return 1
	}
	return float64(s.Satisfied) / float64(s.Resolved)
}

// RollingPhi returns the satisfaction rate over the sliding window as
// of the last observation (1 when the window is empty).
func (s *ServiceSLO) RollingPhi() float64 {
	if len(s.roll) == 0 {
		return 1
	}
	sat := 0
	for _, x := range s.roll {
		if x.sat {
			sat++
		}
	}
	return float64(sat) / float64(len(s.roll))
}

// SLOAccountant tracks every service's SLO state. Single-threaded like
// the rest of the stack.
type SLOAccountant struct {
	cfg      SLOConfig
	services map[int]*ServiceSLO
	order    []int
	recent   []decisionStamp // recent decisions, pruned by time
}

// NewSLOAccountant builds an accountant (cfg zero value = defaults).
func NewSLOAccountant(cfg SLOConfig) *SLOAccountant {
	cfg.defaults()
	return &SLOAccountant{cfg: cfg, services: map[int]*ServiceSLO{}}
}

func (a *SLOAccountant) service(svc int, name, class string) *ServiceSLO {
	s, ok := a.services[svc]
	if !ok {
		s = &ServiceSLO{Service: svc, Name: name, Class: class,
			Latency: NewHistogram(nil)}
		a.services[svc] = s
		a.order = append(a.order, svc)
	}
	return s
}

// NoteDecision records a scheduling decision for later episode
// attribution. IDs must be nondecreasing (the Tracer's are).
func (a *SLOAccountant) NoteDecision(id int64, at time.Duration) {
	a.recent = append(a.recent, decisionStamp{id, at})
	// Prune anything no open or future episode could still reference.
	cut := at - a.cfg.Gap - a.cfg.Lookback
	i := 0
	for i < len(a.recent) && a.recent[i].at < cut {
		i++
	}
	if i > 0 {
		a.recent = append(a.recent[:0], a.recent[i:]...)
	}
	// Feed open episodes immediately so attribution survives pruning.
	for _, svc := range a.order {
		if s := a.services[svc]; s.open {
			a.attribute(s, at)
		}
	}
}

// attribute appends to s.epDecs every recent decision not yet counted
// whose time falls inside the episode's attribution window ending at
// `until`.
func (a *SLOAccountant) attribute(s *ServiceSLO, until time.Duration) {
	from := s.epStart - a.cfg.Lookback
	for _, d := range a.recent {
		if d.id <= s.epMaxDec || d.at < from || d.at > until {
			continue
		}
		s.epMaxDec = d.id
		s.epDecTot++
		if len(s.epDecs) < maxEpisodeDecisions {
			s.epDecs = append(s.epDecs, d.id)
		}
	}
}

// Observe feeds one resolved LC outcome. satisfied=false covers both
// QoS-violating completions and abandonments; completed gates the
// latency histogram (abandonment ages would skew the tail).
func (a *SLOAccountant) Observe(svc int, name, class string, at time.Duration, latencyMs float64, completed, satisfied bool) {
	s := a.service(svc, name, class)
	s.Resolved++
	if completed {
		s.Completed++
		s.Latency.Observe(latencyMs)
	}
	if satisfied {
		s.Satisfied++
	} else {
		s.Violated++
		a.violation(s, at)
	}
	// Rolling window.
	s.roll = append(s.roll, satSample{at, satisfied})
	cut := at - sloWindow
	i := 0
	for i < len(s.roll) && s.roll[i].at <= cut {
		i++
	}
	if i > 0 {
		s.roll = append(s.roll[:0], s.roll[i:]...)
	}
}

func (a *SLOAccountant) violation(s *ServiceSLO, at time.Duration) {
	if s.open && at-s.epLast > a.cfg.Gap {
		a.close(s)
	}
	if !s.open {
		s.open = true
		s.epStart = at
		s.epCount = 0
		s.epDecs = nil
		s.epDecTot = 0
		s.epMaxDec = 0
	}
	s.epLast = at
	s.epCount++
	a.attribute(s, at)
}

func (a *SLOAccountant) close(s *ServiceSLO) {
	if !s.open {
		return
	}
	a.attribute(s, s.epLast)
	s.Episodes = append(s.Episodes, Episode{
		Start: s.epStart, End: s.epLast,
		Violations: s.epCount,
		Decisions:  s.epDecs, DecisionTotal: s.epDecTot,
	})
	s.open = false
	s.epDecs = nil
}

// Finalize closes every open episode (call once at end of run).
func (a *SLOAccountant) Finalize() {
	for _, svc := range a.order {
		a.close(a.services[svc])
	}
}

// Services returns the per-service state in first-seen order.
func (a *SLOAccountant) Services() []*ServiceSLO {
	out := make([]*ServiceSLO, 0, len(a.order))
	for _, svc := range a.order {
		out = append(out, a.services[svc])
	}
	return out
}

// EpisodeReport is the JSON shape of one violation episode.
type EpisodeReport struct {
	StartMs       float64 `json:"start_ms"`
	EndMs         float64 `json:"end_ms"`
	Violations    int64   `json:"violations"`
	Decisions     []int64 `json:"decisions,omitempty"`
	DecisionTotal int64   `json:"decision_total,omitempty"`
}

// SLOReport is the JSON shape of one service's SLO accounting.
type SLOReport struct {
	Service    string          `json:"service"`
	Class      string          `json:"class,omitempty"`
	Resolved   int64           `json:"resolved"`
	Completed  int64           `json:"completed"`
	Satisfied  int64           `json:"satisfied"`
	Violated   int64           `json:"violated"`
	Phi        float64         `json:"phi"`
	RollingPhi float64         `json:"rolling_phi"`
	P95Ms      float64         `json:"p95_ms"`
	P99Ms      float64         `json:"p99_ms"`
	Episodes   []EpisodeReport `json:"episodes,omitempty"`
}

// Snapshot renders the accounting for the run report, services sorted
// by name for stable output. Call Finalize first.
func (a *SLOAccountant) Snapshot() []SLOReport {
	out := make([]SLOReport, 0, len(a.services))
	for _, svc := range a.order {
		s := a.services[svc]
		r := SLOReport{
			Service: s.Name, Class: s.Class,
			Resolved: s.Resolved, Completed: s.Completed,
			Satisfied: s.Satisfied, Violated: s.Violated,
			Phi: s.Phi(), RollingPhi: s.RollingPhi(),
			P95Ms: finiteOrZero(s.Latency.Quantile(0.95)),
			P99Ms: finiteOrZero(s.Latency.Quantile(0.99)),
		}
		for _, ep := range s.Episodes {
			r.Episodes = append(r.Episodes, EpisodeReport{
				StartMs:    float64(ep.Start) / float64(time.Millisecond),
				EndMs:      float64(ep.End) / float64(time.Millisecond),
				Violations: ep.Violations,
				Decisions:  ep.Decisions, DecisionTotal: ep.DecisionTotal,
			})
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out
}

package main

import (
	"sort"
	"time"

	"repro/internal/dcgbe"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/gnn"
	"repro/internal/hrm"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/res"
	"repro/internal/rl"
	"repro/internal/topo"
)

// The probes below time one layer each from outside, through the public
// hooks core.Options and dcgbe.Scheduler expose. Each forwards every call
// unchanged, so a traced run makes exactly the decisions an untraced run
// makes; the benchmark's correctness gate checks that.

// callTimer records the wall time of every call through one boundary.
type callTimer struct {
	ns []float64
}

func (t *callTimer) since(start time.Time) { t.ns = append(t.ns, float64(time.Since(start))) }

func (t *callTimer) calls() float64 { return float64(len(t.ns)) }

func (t *callTimer) totalS() float64 {
	sum := 0.0
	for _, v := range t.ns {
		sum += v
	}
	return sum / 1e9
}

// quantiles returns the median per-call time and the tail percentile
// (see tailRank) in the given unit, plus the tail's rank.
func (t *callTimer) quantiles(unit time.Duration) (p50, tail float64, rank int) {
	s := append([]float64(nil), t.ns...)
	sort.Float64s(s)
	rank = tailRank(len(s))
	return metrics.SortedPercentile(s, 50) / float64(unit),
		metrics.SortedPercentile(s, float64(rank)) / float64(unit), rank
}

// tailRank is the highest of 99, 90 and 50 whose percentile leaves at
// least ten of n samples above it.
func tailRank(n int) int {
	for _, r := range []int{99, 90} {
		if float64(n)*float64(100-r)/100 >= 10 {
			return r
		}
	}
	return 50
}

// agentProbe wraps dcgbe.Scheduler.Agent: Probs is inference (encoder
// and actor forward), Update is one A2C training step.
type agentProbe struct {
	inner        dcgbe.Agent
	infer, train callTimer
	batch        int64
}

func (a *agentProbe) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	start := time.Now()
	p := a.inner.Probs(g, x, mask)
	a.infer.since(start)
	return p
}

func (a *agentProbe) Update(batch []rl.Transition) rl.Stats {
	start := time.Now()
	st := a.inner.Update(batch)
	a.train.since(start)
	a.batch += int64(len(batch))
	return st
}

// lcProbe is the LC scheduler core.Options.MakeLC installs in traced
// runs: DSS-LC behind the core.BatchLCIntoScheduler interface, so every
// per-master batch solve is one timed call.
type lcProbe struct {
	inner          *dsslc.Scheduler
	t              callTimer
	reqs, assigned int64
}

func (l *lcProbe) ScheduleBatchInto(c topo.ClusterID, reqs []*engine.Request, out dsslc.Assignment) {
	start := time.Now()
	l.inner.ScheduleBatchInto(c, reqs, out)
	l.t.since(start)
	// core clears out before every call, so its size is this batch's.
	l.reqs += int64(len(reqs))
	l.assigned += int64(len(out))
}

func (l *lcProbe) Name() string { return l.inner.Name() }

// policyProbe wraps the HRM regulations installed as core.Options.Policy;
// every Admit is one admission check (arrival and queue drain).
type policyProbe struct {
	inner    *hrm.Regulations
	t        callTimer
	admitted int64
}

func (p *policyProbe) Admit(n *engine.Node, r *engine.Request) (res.Vector, bool) {
	start := time.Now()
	v, ok := p.inner.Admit(n, r)
	p.t.since(start)
	if ok {
		p.admitted++
	}
	return v, ok
}

func (p *policyProbe) Name() string { return p.inner.Name() }

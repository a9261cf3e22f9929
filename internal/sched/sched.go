// Package sched defines the one-request traffic-scheduling interface and
// the three baseline policies the paper compares against (§7.2):
// k8s-native round-robin [9], load-greedy (lowest-load node) and scoring
// (a weighted score over resource usage and transmission latency, after
// [42]). DCG-BE implements the same interface in its own package and is
// the BE dispatcher's default. On the LC side core adapts a Scheduler
// to its one entry point, LCScheduler.ScheduleRound, whose default is
// the batched DSS-LC (internal/dsslc via internal/shard).
package sched

import (
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Scheduler picks a target worker for one request among candidate nodes.
// Implementations must be deterministic given their internal state.
type Scheduler interface {
	// Pick returns the chosen worker and true, or false when no
	// candidate is acceptable.
	Pick(r *engine.Request, cands []*engine.Node) (topo.NodeID, bool)
	Name() string
}

// RoundRobin is the K8s-native service-proxy baseline: it cycles through
// candidates regardless of load, priority or distance.
type RoundRobin struct {
	next int
}

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "k8s-native" }

// Pick implements Scheduler.
func (r *RoundRobin) Pick(_ *engine.Request, cands []*engine.Node) (topo.NodeID, bool) {
	if len(cands) == 0 {
		return 0, false
	}
	n := cands[r.next%len(cands)]
	r.next++
	return n.ID, true
}

// LoadGreedy dispatches to the candidate with the lowest projected
// dominant-share load (running + queued + in-transit), breaking ties
// toward the lowest node ID.
type LoadGreedy struct{}

// Name implements Scheduler.
func (LoadGreedy) Name() string { return "load-greedy" }

// Pick implements Scheduler.
func (LoadGreedy) Pick(_ *engine.Request, cands []*engine.Node) (topo.NodeID, bool) {
	if len(cands) == 0 {
		return 0, false
	}
	best := cands[0]
	bestU := best.ProjectedUtilization()
	for _, n := range cands[1:] {
		u := n.ProjectedUtilization()
		if u < bestU || (u == bestU && n.ID < best.ID) {
			best, bestU = n, u
		}
	}
	return best.ID, true
}

// Scoring is the weighted-score baseline [42]: it scores each candidate
// by free capacity, queue backlog and transmission latency and picks the
// maximum. Unlike DSS-LC it looks at one request at a time and cannot
// jointly optimize a batch.
type Scoring struct {
	Topo *topo.Topology
}

// The Scoring weights favour free resources, then latency, then queue.
const (
	scoreWFree    = 1.0
	scoreWLatency = 0.8
	scoreWQueue   = 0.5
)

// NewScoring builds the scoring baseline over a topology.
func NewScoring(t *topo.Topology) *Scoring { return &Scoring{Topo: t} }

// Name implements Scheduler.
func (s *Scoring) Name() string { return "scoring" }

// Pick implements Scheduler.
func (s *Scoring) Pick(r *engine.Request, cands []*engine.Node) (topo.NodeID, bool) {
	if len(cands) == 0 {
		return 0, false
	}
	master := s.Topo.Cluster(r.Cluster).Master
	best, bestScore := cands[0], math.Inf(-1)
	for _, n := range cands {
		free := 1 - n.ProjectedUtilization()
		rttMs := float64(s.Topo.RTT(master, n.ID)) / 1e6
		lcq, beq := n.QueueLen()
		score := scoreWFree*free - scoreWLatency*(rttMs/100) - scoreWQueue*float64(lcq+beq)/10
		if score > bestScore || (score == bestScore && n.ID < best.ID) {
			best, bestScore = n, score
		}
	}
	return best.ID, true
}

// Audit emits one Decision audit record for a one-shot baseline pick:
// each candidate with its projected load, Flow=1 on the chosen node,
// losers marked not-chosen. The stamped decision ID is written to
// r.DecisionID so the request's spans link back to it. No-op (returns
// -1) when the tracer is disabled or the pick failed.
func Audit(tr *obs.Tracer, sc Scheduler, r *engine.Request, cands []*engine.Node, chosen topo.NodeID, ok bool) int64 {
	if !tr.Enabled() || !ok {
		return -1
	}
	d := obs.Decision{
		Algo:    sc.Name(),
		Cluster: int(r.Cluster), Svc: int(r.Type),
		Batch: 1, Routed: 1,
		Candidates: make([]obs.Candidate, len(cands)),
	}
	for i, n := range cands {
		c := obs.Candidate{Node: int(n.ID), Capacity: 1, Util: n.ProjectedUtilization()}
		if n.ID == chosen {
			c.Flow = 1
		} else {
			c.Reject = obs.RejectNotChosen
		}
		d.Candidates[i] = c
	}
	tr.EmitDecision(&d)
	r.DecisionID = d.ID
	return d.ID
}

// CandidatesLC returns the live worker nodes an LC request arriving at
// cluster c may be dispatched to: c's own plus those of its
// topo.Topology.Neighbors (footnote 4 of the paper).
func CandidatesLC(e *engine.Engine, c topo.ClusterID) []*engine.Node {
	t := e.Topology()
	var out []*engine.Node
	for _, w := range t.WorkersOf(c) {
		if n := e.Node(w); !n.Down() {
			out = append(out, n)
		}
	}
	for _, nc := range t.Neighbors(c) {
		for _, w := range t.WorkersOf(nc) {
			if n := e.Node(w); !n.Down() {
				out = append(out, n)
			}
		}
	}
	return out
}

// CandidatesBE returns all live workers in the system (BE scheduling is
// centralized and global, §5.3).
func CandidatesBE(e *engine.Engine) []*engine.Node {
	var out []*engine.Node
	for _, n := range e.Nodes() {
		if !n.Down() {
			out = append(out, n)
		}
	}
	return out
}

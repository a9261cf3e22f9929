// Package check is the differential-verification layer: runtime
// invariant sweeps, cross-checking oracles for the min-cost-flow
// optimizer, and the deterministic-replay contract's reference
// machinery. The repo substitutes simulation for a physical testbed
// everywhere, so reproducibility and internal consistency are the
// correctness story; this package makes both checkable:
//
//   - Verifier collects invariant violations during a run. core.New
//     wires one up behind Options.Verify: it sweeps engine accounting
//     (engine.SelfCheck) and SLO episode disjointness on every
//     collection tick, and cross-checks every DSS-LC min-cost-flow
//     solve via the dsslc.OnSolve hook.
//   - RefGraph (refflow.go) is a deliberately naive Bellman-Ford /
//     Edmonds-Karp reference implementation of min-cost max-flow, used
//     by the differential tests and fuzz targets to corroborate the
//     production SSP+Johnson solver on random instances.
//
// The replay-digest half of the contract lives in internal/obs
// (DigestSink, ReportDigest); the replay tests here tie it together.
package check

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/obs"
)

// Violation is one recorded invariant breach.
type Violation struct {
	At     time.Duration // virtual time of the sweep that caught it
	Rule   string        // "engine", "slo", "flow"
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Rule, v.Detail)
}

// Verifier records invariant violations instead of panicking, so a
// verification run surfaces every breach (up to Max retained) rather
// than dying on the first. Single-threaded like the simulation it
// observes.
type Verifier struct {
	now func() time.Duration

	// Max caps retained Violations (default 64); Total stays exact.
	Max        int
	Total      int64
	Checks     int64 // individual invariant checks executed
	Violations []Violation
}

// NewVerifier builds a verifier; now supplies virtual time for stamping
// violations (nil falls back to zero).
func NewVerifier(now func() time.Duration) *Verifier {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Verifier{now: now, Max: 64}
}

func (v *Verifier) fail(rule string, err error) {
	v.Total++
	if len(v.Violations) < v.Max {
		v.Violations = append(v.Violations, Violation{At: v.now(), Rule: rule, Detail: err.Error()})
	}
}

// Err summarizes the run: nil when no invariant was violated, otherwise
// an error quoting the first retained violation and the total count.
func (v *Verifier) Err() error {
	if v.Total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d violation(s), first: %s", v.Total, v.Violations[0])
}

// SweepEngine validates the engine's internal accounting (used/usedLC
// aggregates vs. running allocations, capacity bounds, down-node
// emptiness, queue class membership).
func (v *Verifier) SweepEngine(e *engine.Engine) {
	v.Checks++
	if err := e.SelfCheck(); err != nil {
		v.fail("engine", err)
	}
}

// SweepSLO validates the accountant's closed episodes.
func (v *Verifier) SweepSLO(a *obs.SLOAccountant) {
	v.Checks++
	if err := SLOInvariants(a); err != nil {
		v.fail("slo", err)
	}
}

// FlowHook returns a dsslc.Scheduler.OnSolve callback that cross-checks
// every production min-cost-flow solve in situ: the routed flow must be
// conserved at interior nodes and both flow and cost must be
// nonnegative (edge costs are nonnegative by construction).
func (v *Verifier) FlowHook() func(g *flow.Graph, src, sink int, r flow.Result) {
	return func(g *flow.Graph, src, sink int, r flow.Result) {
		v.Checks++
		if r.Flow < 0 || r.Cost < 0 {
			v.fail("flow", fmt.Errorf("solve returned negative result %+v", r))
			return
		}
		if err := g.Conservation(src, sink); err != nil {
			v.fail("flow", err)
		}
	}
}

// SLOInvariants checks the accountant's per-service closed episodes:
// intervals well-formed (Start ≤ End) and strictly disjoint in time
// order, each episode holds at least one violation with the retained
// decision list never exceeding the exact total, and the resolved
// outcome counters are mutually consistent. Exported standalone so
// tests can probe it without a Verifier.
func SLOInvariants(a *obs.SLOAccountant) error {
	for _, s := range a.Services() {
		if s.Satisfied+s.Violated != s.Resolved {
			return fmt.Errorf("slo %s: satisfied %d + violated %d != resolved %d",
				s.Name, s.Satisfied, s.Violated, s.Resolved)
		}
		if s.Completed > s.Resolved {
			return fmt.Errorf("slo %s: completed %d > resolved %d", s.Name, s.Completed, s.Resolved)
		}
		var prevEnd time.Duration
		for i, ep := range s.Episodes {
			if ep.End < ep.Start {
				return fmt.Errorf("slo %s: episode %d ends %v before start %v", s.Name, i, ep.End, ep.Start)
			}
			if ep.Violations < 1 {
				return fmt.Errorf("slo %s: episode %d has %d violations", s.Name, i, ep.Violations)
			}
			if int64(len(ep.Decisions)) > ep.DecisionTotal {
				return fmt.Errorf("slo %s: episode %d retains %d decisions of total %d",
					s.Name, i, len(ep.Decisions), ep.DecisionTotal)
			}
			if i > 0 && ep.Start <= prevEnd {
				return fmt.Errorf("slo %s: episode %d [%v,%v] overlaps previous end %v",
					s.Name, i, ep.Start, ep.End, prevEnd)
			}
			prevEnd = ep.End
		}
	}
	return nil
}

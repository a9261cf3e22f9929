package core

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/obs"
)

// maxViolations caps Verifier.Violations; Verifier.Total stays exact.
const maxViolations = 64

// Violation is one recorded invariant breach.
type Violation struct {
	At     time.Duration // virtual time of the check that caught it
	Rule   string        // "engine", "slo", "flow"
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Rule, v.Detail)
}

// Verifier records invariant violations instead of panicking, so a
// verification run surfaces every breach (the first maxViolations
// retained) rather than dying on the first. core.New builds one behind
// Options.Verify: it sweeps the engine's accounting (engine.SelfCheck)
// and the SLO accountant (obs.SLOAccountant.SelfCheck) every collection
// period and after every chaos revive, and checks every DSS-LC
// min-cost-flow solve. Single-threaded like the simulation it observes.
type Verifier struct {
	now func() time.Duration

	Total      int64       // violations found, exact
	Checks     int64       // individual invariant checks executed
	Violations []Violation // the first maxViolations of them
}

// Err summarizes the run: nil when no invariant was violated, otherwise
// an error quoting the first retained violation and the total count.
func (v *Verifier) Err() error {
	if v.Total == 0 {
		return nil
	}
	return fmt.Errorf("verify: %d violation(s), first: %s", v.Total, v.Violations[0])
}

// record counts one check of rule and logs err when it is non-nil.
func (v *Verifier) record(rule string, err error) {
	v.Checks++
	if err == nil {
		return
	}
	v.Total++
	if len(v.Violations) < maxViolations {
		v.Violations = append(v.Violations, Violation{At: v.now(), Rule: rule, Detail: err.Error()})
	}
}

// sweep checks the engine's internal accounting and the SLO
// accountant's outcome counters and closed episodes.
func (v *Verifier) sweep(e *engine.Engine, a *obs.SLOAccountant) {
	v.record("engine", e.SelfCheck())
	v.record("slo", a.SelfCheck())
}

// onSolve is the DSS-LC OnSolve hook: the routed flow must be conserved
// at interior nodes and both flow and cost must be nonnegative (edge
// costs are nonnegative by construction).
func (v *Verifier) onSolve(g *flow.Graph, src, sink int, r flow.Result) {
	if r.Flow < 0 || r.Cost < 0 {
		v.record("flow", fmt.Errorf("solve returned negative result %+v", r))
		return
	}
	v.record("flow", g.Conservation(src, sink))
}

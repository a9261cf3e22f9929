// Chaos differential survival oracle (ROADMAP item 3): after a run
// under a fault-injection program, every accepted request must resolve
// to exactly one outcome (no losses, no duplicates — conservation holds
// across node churn, cluster kills and live migrations), the engine's
// resource accounting must balance, the in-situ verifier (which sweeps
// after every revive) must be clean, and the SLO accountant's episode
// invariants must hold. The chaos sweep test drives this over a seed
// range and additionally pins digest-identical replays.
package check

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ChaosDiffStats summarizes what the oracle saw; returned alongside the
// verdict so sweeps can report attribution and migration activity.
type ChaosDiffStats struct {
	Arrived    int64 // requests accepted by the system (trace + injected)
	Resolved   int64 // distinct request IDs that produced an outcome
	Duplicates int64 // outcome events beyond the first per request
	Migrations int64 // live migrations started
	// AttributedEpisodes of TotalEpisodes overlap at least one fault
	// window (violations explained by an active fault).
	AttributedEpisodes int
	TotalEpisodes      int
}

// ChaosDiff runs the survival oracle over a finished chaos run.
// outcomes maps request ID to how many outcome events it produced;
// arrived counts accepted requests. inj and v may be nil (the
// corresponding checks are skipped — useful for the no-chaos control
// arm of a differential pair).
func ChaosDiff(e *engine.Engine, inj *chaos.Injector, v *core.Verifier,
	acct *obs.SLOAccountant, arrived int64, outcomes map[int64]int) (ChaosDiffStats, error) {

	st := ChaosDiffStats{Arrived: arrived, Migrations: e.Migrations}
	var errs []error
	for id, n := range outcomes {
		st.Resolved++
		if n > 1 {
			st.Duplicates += int64(n - 1)
			if len(errs) < 4 {
				errs = append(errs, fmt.Errorf("request %d produced %d outcomes", id, n))
			}
		}
	}
	if st.Resolved != arrived {
		errs = append(errs, fmt.Errorf("conservation: %d requests arrived, %d resolved (%+d lost)",
			arrived, st.Resolved, arrived-st.Resolved))
	}
	if err := e.SelfCheck(); err != nil {
		errs = append(errs, fmt.Errorf("engine self-check: %w", err))
	}
	if v != nil {
		if err := v.Err(); err != nil {
			errs = append(errs, fmt.Errorf("verifier: %w", err))
		}
	}
	if acct != nil {
		if err := acct.SelfCheck(); err != nil {
			errs = append(errs, fmt.Errorf("slo invariants: %w", err))
		}
		if inj != nil {
			st.AttributedEpisodes, st.TotalEpisodes = inj.AttributedEpisodes(acct)
		}
	}
	return st, errors.Join(errs...)
}

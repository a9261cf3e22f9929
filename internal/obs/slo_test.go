package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSLOInvariantsEpisodeChecks(t *testing.T) {
	mk := func() *SLOAccountant {
		a := NewSLOAccountant(SLOConfig{Gap: 100 * time.Millisecond})
		a.Observe(1, "svc", "LC", 1*time.Second, 900, true, false)
		a.Observe(1, "svc", "LC", 3*time.Second, 900, true, false)
		a.Finalize()
		return a
	}
	if a := mk(); len(a.Services()[0].Episodes) != 2 {
		t.Fatalf("setup: %d episodes, want 2", len(mk().Services()[0].Episodes))
	}
	if err := mk().SelfCheck(); err != nil {
		t.Fatalf("well-formed episodes rejected: %v", err)
	}

	a := mk()
	a.Services()[0].Episodes[1].Start = 500 * time.Millisecond // overlaps episode 0
	if err := a.SelfCheck(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlap not detected: %v", err)
	}

	a = mk()
	a.Services()[0].Episodes[0].End = 0 // ends before start
	if err := a.SelfCheck(); err == nil || !strings.Contains(err.Error(), "before start") {
		t.Fatalf("inverted interval not detected: %v", err)
	}

	a = mk()
	a.Services()[0].Episodes[0].Violations = 0
	if err := a.SelfCheck(); err == nil || !strings.Contains(err.Error(), "violations") {
		t.Fatalf("empty episode not detected: %v", err)
	}
}

package main

import (
	"fmt"

	"repro/internal/trace"
)

// ledger proves request conservation: every injected request must
// resolve to exactly one outcome (completed or not) by the end of Run.
type ledger struct {
	seen      map[int64]int32
	unknown   int
	completed int64
	resolved  int64
}

func newLedger(reqs []trace.Request) *ledger {
	l := &ledger{seen: make(map[int64]int32, len(reqs))}
	for _, r := range reqs {
		l.seen[r.ID] = 0
	}
	return l
}

// note records one outcome; core.Options.OnOutcome calls it.
func (l *ledger) note(id int64, completed bool) {
	if n, ok := l.seen[id]; ok {
		l.seen[id] = n + 1
	} else {
		l.unknown++
	}
	l.resolved++
	if completed {
		l.completed++
	}
}

// verify counts the requests that broke conservation — lost (no
// outcome), duplicated (several) or never injected — and describes them.
func (l *ledger) verify() (int64, error) {
	var lost, dup int
	for _, n := range l.seen {
		switch {
		case n == 0:
			lost++
		case n > 1:
			dup++
		}
	}
	bad := lost + dup + l.unknown
	if bad > 0 {
		return int64(bad), fmt.Errorf("request conservation: %d lost, %d duplicated, %d never injected", lost, dup, l.unknown)
	}
	return 0, nil
}

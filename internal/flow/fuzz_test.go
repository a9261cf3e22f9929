package flow_test

import (
	"testing"

	"repro/internal/check"
)

// FuzzMinCostFlow decodes arbitrary bytes into a bounded flow instance
// and runs the full differential oracle: the production SSP solver must
// agree with the naive Bellman-Ford/Edmonds-Karp references on max-flow
// value, SSP's cost must be the reference
// optimum, conservation plus Reset round-tripping must hold, and
// workspace-backed warm starts (memo replay across Reset, Clear+rebuild
// and capacity drift) must be bit-identical to cold solves.
// Run continuously with `make fuzz-smoke` (or `go test -fuzz`).
func FuzzMinCostFlow(f *testing.F) {
	// Seed corpus: trivial, diamond, parallel/zero-cap edges, a dense
	// mesh, and a backwards edge into the source.
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 1, 5, 1, 1, 3, 5, 0, 0, 2, 4, 9, 2, 3, 4, 0})
	f.Add([]byte{1, 0, 1, 3, 1, 0, 1, 3, 7, 0, 2, 0, 1, 1, 2, 8, 2})
	f.Add([]byte{7, 0, 8, 15, 31, 8, 1, 7, 0, 1, 2, 3, 4, 2, 8, 9, 9, 8, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := check.DecodeInstance(data)
		if !ok {
			return
		}
		if err := check.DiffCheck(in); err != nil {
			t.Fatalf("%v\ninstance: %+v", err, in)
		}
	})
}

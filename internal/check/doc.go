// Package check holds the test oracles: the reference implementations
// and differential checks that the tests hold the production code
// against. The repo substitutes simulation for a physical testbed
// everywhere, so reproducibility and internal consistency are the
// correctness story. Only tests import this package; the run-time
// invariant checks behind core.Options.Verify live in core.Verifier,
// engine.SelfCheck and obs.SLOAccountant.SelfCheck.
//
//   - RefGraph (refflow.go) is a deliberately naive Bellman-Ford /
//     Edmonds-Karp reference implementation of min-cost max-flow, used
//     by the differential tests and fuzz targets to corroborate the
//     production SSP+Johnson solver on random instances.
//   - ShardDiff (shardcheck.go) schedules one seeded instance through
//     the sharded and the global DSS-LC and bounds their divergence.
//   - ChaosDiff (chaoscheck.go) is the survival oracle over a finished
//     chaos run: request conservation, engine accounting, the run's
//     verifier and the SLO accountant's invariants.
//
// The replay-digest half of the contract lives in internal/obs
// (DigestSink, ReportDigest); the replay and golden tests here tie it
// together.
package check

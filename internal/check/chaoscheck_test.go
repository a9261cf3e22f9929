package check_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The chaos survival scenario: the physical testbed under a modest load
// with a seed-randomized fault program (churn, cluster kill, partition,
// RTT storm, flash crowd, stalls) and the defragmenter running. Short
// enough that a 128-seed sweep stays in CI budget.
const (
	chaosHorizon = 2400 * time.Millisecond
	chaosDrain   = 1600 * time.Millisecond
)

type chaosRunResult struct {
	stream, report string
	progDigest     string
	stats          check.ChaosDiffStats
	err            error
}

func chaosRun(t testing.TB, seed int64, rc chaos.RandConfig) chaosRunResult {
	t.Helper()
	tp := topo.PhysicalTestbed()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, chaosHorizon, seed)
	gen.LCRatePerSec = 30
	gen.BERatePerSec = 10
	reqs := trace.Generate(gen)
	prog := chaos.Random(tp, chaosHorizon, seed, rc)

	opts := core.Tango(tp, seed)
	ds := obs.NewDigestSink(nil)
	opts.TraceSink = ds
	opts.TraceTag = "chaos"
	opts.Verify = true
	opts.Chaos = &prog
	opts.Defrag = true
	outcomes := map[int64]int{}
	opts.OnOutcome = func(o engine.Outcome) { outcomes[o.Req.ID]++ }
	sys := core.New(opts)
	sys.Inject(reqs)
	sys.Run(chaosHorizon + chaosDrain)
	rep := sys.Report("tango-chaos", 0) // finalizes SLO episodes
	arrived := sys.Metrics.LC.Arrived + sys.Metrics.BE.Arrived
	stats, err := check.ChaosDiff(sys.Engine, sys.Chaos, sys.Verifier, sys.SLO, arrived, outcomes)
	return chaosRunResult{
		stream:     ds.Sum(),
		report:     obs.ReportDigest(rep),
		progDigest: prog.Digest(),
		stats:      stats,
		err:        err,
	}
}

// Satellite: chaos replay determinism — the same scenario, program and
// seed must reproduce byte-identical trace streams and reports even
// with every fault kind and the defragmenter active.
func TestChaosReplayDeterministic(t *testing.T) {
	a := chaosRun(t, 42, chaos.DefaultRandConfig())
	if a.err != nil {
		t.Fatalf("chaos oracle: %v (stats %+v)", a.err, a.stats)
	}
	b := chaosRun(t, 42, chaos.DefaultRandConfig())
	if a.stream != b.stream {
		t.Fatalf("same chaos seed, different stream digests:\n  %s\n  %s", a.stream, b.stream)
	}
	if a.report != b.report {
		t.Fatalf("same chaos seed, different report digests:\n  %s\n  %s", a.report, b.report)
	}
	if a.stats.Migrations == 0 {
		t.Log("note: seed 42 run performed no migrations")
	}
}

// Golden fault-schedule digests, mirroring the replay-digest goldens in
// seedstability_test.go: the Random program drawn for a seed over the
// physical testbed is part of the replay contract. If chaos.Random ever
// changes its drawing order, these change — recapture in the same
// commit that justifies it.
var chaosProgramGoldens = map[int64]string{
	42: "92451c0259f301891b0242e61e74d3aa782d4da57f43a913d7598b614b138664",
	7:  "a730abca1cfbca32eb19b1dbd7f3e1457507d30d1ce03985300311c4399ef215",
}

func TestChaosProgramGoldens(t *testing.T) {
	tp := topo.PhysicalTestbed()
	for seed, want := range chaosProgramGoldens {
		p := chaos.Random(tp, chaosHorizon, seed, chaos.DefaultRandConfig())
		if got := p.Digest(); got != want {
			t.Errorf("seed %d: fault-schedule digest drifted:\n  golden %s\n  got    %s", seed, want, got)
		}
	}
}

// The 128-seed survival sweep: every seed's run must satisfy the
// conservation oracle, and periodic seeds are re-run to assert the
// digests are identical across reruns.
func TestChaosDiffSweep(t *testing.T) {
	seeds := 128
	if testing.Short() {
		seeds = 16
	}
	for seed := 0; seed < seeds; seed++ {
		r := chaosRun(t, int64(seed), chaos.DefaultRandConfig())
		if r.err != nil {
			t.Errorf("seed %d: %v (stats %+v)", seed, r.err, r.stats)
			continue
		}
		if seed%16 == 0 {
			r2 := chaosRun(t, int64(seed), chaos.DefaultRandConfig())
			if r.stream != r2.stream || r.report != r2.report {
				t.Errorf("seed %d: rerun digests differ (stream %v, report %v)",
					seed, r.stream == r2.stream, r.report == r2.report)
			}
		}
	}
}

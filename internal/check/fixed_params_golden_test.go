package check_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dcgbe"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Fixed-parameter goldens: the stream and report digests of the two
// system runs no other golden covers — a testbed run under the "all"
// chaos preset with the defragmenter, and DCG-BE on a fleet above 32
// workers, where training fires every 4N picks instead of every 32.
// They pin the paper's fixed parameters (collection period, dispatch
// cadence, defrag thresholds, flash-crowd template, training cadence
// and batch): a refactor of where those values live must leave every
// digest byte-identical.
var fixedParamGoldens = []struct {
	name           string
	stream, report string
}{
	{"chaos-all+defrag",
		"689567f5bf3d677f8537c62e5c1fd2e64a264a96458583921ade52a11e05fb41",
		"52ee30552035228cf6361a7e402f3b01ac65239524ea83e012ce91c3beb938a0"},
	{"dcgbe-dualspace",
		"2fa8c5833ee16caab3a22e71348f5e74a8c5e3ca41432da6eafd21d38b854dda",
		"be7236e429b355a7328e97030dad6f24038041ca3a6973cd0bf3ddfc0e94e34f"},
}

func fixedParamRun(t *testing.T, name string) (stream, report string) {
	t.Helper()
	const seed = 42
	tp := topo.PhysicalTestbed()
	lcRate, beRate := 60.0, 15.0
	if name == "dcgbe-dualspace" {
		tp = topo.DualSpace(2, 1)
		lcRate, beRate = 40, 70
	}
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, replayHorizon, seed)
	gen.LCRatePerSec = lcRate
	gen.BERatePerSec = beRate
	reqs := trace.Generate(gen)

	opts := core.Tango(tp, seed)
	ds := obs.NewDigestSink(nil)
	opts.TraceSink = ds
	opts.TraceTag = name
	opts.Verify = true
	var be *dcgbe.Scheduler
	switch name {
	case "chaos-all+defrag":
		prog, err := chaos.Preset("all", tp, replayHorizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		opts.Chaos = &prog
		opts.Defrag = true
	case "dcgbe-dualspace":
		opts.MakeBE = func(e *engine.Engine, seed int64) any {
			be = dcgbe.New(e, seed)
			return be
		}
	}
	sys := core.New(opts)
	sys.Inject(reqs)
	sys.Run(replayHorizon + 2*time.Second)
	rep := sys.Report(name, 0)
	if err := sys.Verifier.Err(); err != nil {
		t.Fatalf("%s: verifier violations: %v", name, err)
	}
	if be != nil {
		if n := len(sys.Engine.Nodes()); n <= 32 {
			t.Fatalf("%s: %d workers; the fleet must exceed 32 to train every 4N picks", name, n)
		}
		if be.Updates == 0 {
			t.Fatalf("%s: DCG-BE never trained (%d decisions)", name, be.Decisions)
		}
	}
	if sys.Defrag != nil && sys.Defrag.Moves == 0 {
		t.Fatalf("%s: the defragmenter moved nothing in %d passes", name, sys.Defrag.Passes)
	}
	return ds.Sum(), obs.ReportDigest(rep)
}

func TestFixedParamGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs are slow under -short")
	}
	for _, g := range fixedParamGoldens {
		stream, report := fixedParamRun(t, g.name)
		t.Logf("%s: stream=%s report=%s", g.name, stream, report)
		if stream != g.stream {
			t.Errorf("%s: stream digest drifted:\n  golden %s\n  got    %s", g.name, g.stream, stream)
		}
		if report != g.report {
			t.Errorf("%s: report digest drifted:\n  golden %s\n  got    %s", g.name, g.report, report)
		}
	}
}

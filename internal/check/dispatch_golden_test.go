package check_test

import (
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Dispatch goldens: the stream and report digests of every way core
// drives an LC scheduler — the one-request baselines (K8s-native, CERES,
// DSACO and Tango paired with each sched.Scheduler LC algorithm), default
// DSS-LC, DSS-LC behind a bare ScheduleBatchInto wrapper, and the sharded
// layer at K=3. The seed goldens pin only the light default Tango run;
// these were captured before core's LC dispatch was collapsed onto one
// entry point, and a rewrite of the dispatcher must leave every one of
// them byte-identical. The scenario loads one hot cluster (weights 6:1:1:1)
// so DSS-LC spills across clusters and the shard overflow pass runs.
var dispatchGoldens = []struct {
	name           string
	stream, report string
}{
	{"k8s-native",
		"fe500230fbddf0053efe5d04f73df5d61d566f644e515765c5ff0dbf622f2d8d",
		"6428a4b9641db90cd9afed5bf79213951f2812eba520995ba5b8d90589577590"},
	{"ceres",
		"9f345a193627bef1ac1fd2cda7334f37df239ebdc946d7f8f811eab74ae4d065",
		"b66b665a0999db891a359518974cf2c0ae6550e4a8bf37f5f045ac35544a9226"},
	{"dsaco",
		"0266f7366c5e5172ce3315abdba5c6e542236201681dcb5fe23c0617f2ffd13e",
		"37bcbbb57946ea790eaa3821fa6a695afb4c64ea581f7d78b2650c4ff5a22db5"},
	{"tango",
		"c74161d41ec97aef99a237c843fe07fe3f863d82600d42fd30cc12a580d6840b",
		"f1bb66005cf86fbde39724033a3acf1e1b0b233b0f71289483cd92792dd0f039"},
	{"tango+scoring",
		"0b1dd8a87dc3c5fb7b83825d11f5255aed2f155e0c0adef021438abefc250f2f",
		"592dde5ef82c28e5a8c40e9408c42f3a7730e629122a169d6c28289a56e774d6"},
	{"tango+load-greedy",
		"d3c9a11b43d1f2d580317e762557405a5fe3d6e2ccd5ee855d175cd0c765946e",
		"774319a026351fd126782283d8e11f97a111e1bd953e68558706fed1143a9e27"},
	{"tango+k8s-native",
		"2ac6893e1dac18e8f2fa575fae1d588e42b0128e560617d3d8427cc965769f23",
		"7acee28e3cbece7dbec0085b6385f844fdc1ea2f3fe399944f3d549826675c14"},
	{"tango+batch-wrapper",
		"c5bf21a390c7b787da00d410c55ea52242c5b32cc192046a16d35104bb730a26",
		"4ba98ab8ea466e4848be085a895a98338ca1666f7282789bc8bb91da48019657"},
	{"tango+shards3",
		"8e246b8bbdc6dd2601b24b7ff00bdf0258134137f004260f8fdca5ec44ffeed7",
		"c22e8be4e8e4d76642eda243c9945503364b34b8f4a88d6f869d296297c37b45"},
}

// batchOnly exposes DSS-LC through nothing but ScheduleBatchInto and
// Name, the shape of an outside probe wrapping the scheduler.
type batchOnly struct{ inner *dsslc.Scheduler }

func (b batchOnly) ScheduleBatchInto(c topo.ClusterID, reqs []*engine.Request, out dsslc.Assignment) {
	b.inner.ScheduleBatchInto(c, reqs, out)
}

func (b batchOnly) Name() string { return b.inner.Name() }

func dispatchOptions(name string, tp *topo.Topology, reqs []trace.Request, seed int64) core.Options {
	tango := func(mk func(e *engine.Engine, seed int64) any) core.Options {
		o := core.Tango(tp, seed)
		o.MakeLC = mk
		return o
	}
	switch name {
	case "k8s-native":
		return baselines.K8sNative(tp, reqs, seed)
	case "ceres":
		return baselines.CERES(tp, seed)
	case "dsaco":
		return baselines.DSACO(tp, seed)
	case "tango":
		return core.Tango(tp, seed)
	case "tango+scoring":
		return tango(func(e *engine.Engine, _ int64) any { return sched.NewScoring(e.Topology()) })
	case "tango+load-greedy":
		return tango(func(*engine.Engine, int64) any { return sched.LoadGreedy{} })
	case "tango+k8s-native":
		return tango(func(*engine.Engine, int64) any { return &sched.RoundRobin{} })
	case "tango+batch-wrapper":
		return tango(func(e *engine.Engine, seed int64) any { return batchOnly{dsslc.New(e, seed)} })
	case "tango+shards3":
		o := core.Tango(tp, seed)
		o.LCShards = 3
		o.LCShardWorkers = 2
		return o
	}
	panic("unknown dispatch configuration " + name)
}

func dispatchRun(t *testing.T, name string) (stream, report string) {
	t.Helper()
	const seed = 42
	tp := topo.PhysicalTestbed()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, replayHorizon, seed)
	gen.LCRatePerSec = 300
	gen.BERatePerSec = 15
	gen.ClusterWeights = []float64{6, 1, 1, 1}
	reqs := trace.Generate(gen)

	opts := dispatchOptions(name, tp, reqs, seed)
	ds := obs.NewDigestSink(nil)
	opts.TraceSink = ds
	opts.TraceTag = "dispatch"
	sys := core.New(opts)
	sys.Inject(reqs)
	sys.Run(replayHorizon + 2*time.Second)
	if ds.Records() == 0 {
		t.Fatalf("%s: run emitted no trace records", name)
	}
	return ds.Sum(), obs.ReportDigest(sys.Report(name, 0))
}

func TestDispatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs are slow under -short")
	}
	for _, g := range dispatchGoldens {
		stream, report := dispatchRun(t, g.name)
		t.Logf("%s: stream=%s report=%s", g.name, stream, report)
		if stream != g.stream {
			t.Errorf("%s: stream digest drifted:\n  golden %s\n  got    %s", g.name, g.stream, stream)
		}
		if report != g.report {
			t.Errorf("%s: report digest drifted:\n  golden %s\n  got    %s", g.name, g.report, report)
		}
	}
}

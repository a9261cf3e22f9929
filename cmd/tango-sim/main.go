// Command tango-sim runs one mixed-service edge-cloud simulation and
// prints the per-period metrics and the final summary.
//
// Usage examples:
//
//	tango-sim                                   # Tango on the 4-cluster testbed
//	tango-sim -system ceres -pattern P1         # CERES under pattern P1
//	tango-sim -virtual 100 -duration 30s        # dual-space scale
//	tango-sim -system k8s -series               # print the period series
//	tango-sim -trace out.ndjson -report r.json  # export events + run report
//	tango-sim -chaos churn -defrag -verify      # fault injection + defrag
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/profcli"
	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dcgbe"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

func main() {
	var (
		system   = flag.String("system", "tango", "system to run: tango | k8s | ceres | dsaco")
		pattern  = flag.String("pattern", "P3", "workload pattern: P1 | P2 | P3 | diurnal | wavy | normal")
		duration = flag.Duration("duration", 20*time.Second, "workload duration (virtual time)")
		drain    = flag.Duration("drain", 8*time.Second, "extra virtual time to drain in-flight work")
		virtual  = flag.Int("virtual", 0, "additional virtual clusters beyond the 4 physical ones")
		topoFile = flag.String("topo", "", "load the topology from a JSON file (see topo.ReadJSON)")
		lcRate   = flag.Float64("lc-rate", 60, "LC requests per second (system-wide)")
		beRate   = flag.Float64("be-rate", 25, "BE requests per second (system-wide)")
		seed     = flag.Int64("seed", 1, "random seed")
		shards   = flag.Int("shards", 0, "partition LC scheduling into this many region shards (>1, tango only)")
		series   = flag.Bool("series", false, "print per-period series")
		traceOut = flag.String("trace", "", "write lifecycle events as NDJSON to this file")
		report   = flag.String("report", "", "write the run report (JSON) to this file")
		digest   = flag.Bool("digest", false, "print the replay digests (trace stream + normalized report)")
		verify   = flag.Bool("verify", false, "run invariant sweeps and flow-solve cross-checks; exit 1 on any violation")
		profile  = flag.String("pprof", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		perfOn   = flag.Bool("perf", false, "profile solver/engine/cgroup phases and Go runtime health; prints a phase table (excluded from -digest)")
		listen   = flag.String("listen", "", "serve live telemetry (/metrics /healthz /runinfo /trace/tail) on this host:port (port 0 picks one)")
		linger   = flag.Duration("linger", 0, "keep the telemetry server up this long after the run finishes (requires -listen)")
		spanRate = flag.Float64("span-sample", 0, "deterministic head-based span sampling rate in (0,1]; 0 or 1 = record every span")
		chaosOn  = flag.String("chaos", "", "inject a seed-randomized fault program: churn | partition | flash | all")
		chaosSd  = flag.Int64("chaos-seed", 0, "seed for the fault program (0 = use -seed)")
		defragOn = flag.Bool("defrag", false, "run the periodic BE defragmentation pass")
	)
	flag.Parse()

	var tp *topo.Topology
	switch {
	case *topoFile != "":
		f, err := os.Open(*topoFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tp, err = topo.ReadJSON(f)
		_ = f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *virtual > 0:
		tp = topo.DualSpace(*virtual, *seed)
	default:
		tp = topo.PhysicalTestbed()
	}

	var pat trace.Pattern
	switch *pattern {
	case "P1":
		pat = trace.P1
	case "P2":
		pat = trace.P2
	case "P3":
		pat = trace.P3
	case "diurnal":
		pat = trace.Diurnal
	case "wavy":
		pat = trace.Wavy
	case "normal":
		pat = trace.Normal
	default:
		fmt.Fprintf(os.Stderr, "unknown pattern %q\n", *pattern)
		os.Exit(2)
	}

	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, pat, *duration, *seed)
	gen.LCRatePerSec = *lcRate
	gen.BERatePerSec = *beRate
	reqs := trace.Generate(gen)

	var opts core.Options
	switch *system {
	case "tango":
		opts = core.Tango(tp, *seed)
	case "k8s":
		opts = baselines.K8sNative(tp, reqs, *seed)
	case "ceres":
		opts = baselines.CERES(tp, *seed)
	case "dsaco":
		opts = baselines.DSACO(tp, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}

	// Observability: -trace streams NDJSON events; -report alone still
	// needs a tracer (for the event counts), so it gets a discarding sink.
	// -digest wraps whichever sink is active in a hashing sink (tracing
	// must be on for the stream digest to cover the run).
	var wsink *obs.WriterSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		wsink = obs.NewWriterSink(f)
		opts.TraceSink = wsink
	} else if *report != "" || *digest || *listen != "" {
		opts.TraceSink = obs.NullSink{}
	}
	var dsink *obs.DigestSink
	if *digest {
		dsink = obs.NewDigestSink(opts.TraceSink)
		opts.TraceSink = dsink
	}
	// The live tee wraps the whole chain so /trace/tail sees exactly the
	// stream the file/digest sinks record.
	var tee *obs.TeeSink
	if *listen != "" {
		tee = obs.NewTeeSink(opts.TraceSink, 512)
		opts.TraceSink = tee
	}
	opts.TraceTag = *system
	opts.SpanSampleRate = *spanRate
	if *shards > 0 {
		// Only systems on the default DSS-LC react; baselines install
		// their own LC scheduler and ignore the knob.
		opts.LCShards = *shards
	}
	opts.Verify = *verify
	var prog chaos.Program
	if *chaosOn != "" {
		cs := *chaosSd
		if cs == 0 {
			cs = *seed
		}
		var err error
		prog, err = chaos.Preset(*chaosOn, tp, *duration, cs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Chaos = &prog
	}
	opts.Defrag = *defragOn
	var prof *perf.Profiler
	if *perfOn {
		prof = perf.New()
		// Label CPU samples by phase when both profiles are requested.
		prof.SetLabels(*profile != "")
		opts.Profiler = prof
	}

	var tsrv *telemetry.Server
	if *listen != "" {
		var err error
		tsrv, err = telemetry.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: listening on http://%s\n", tsrv.Addr())
	}

	fmt.Printf("system=%s pattern=%s clusters=%d workers=%d requests=%d (LC %d / BE %d)\n",
		*system, pat, len(tp.Clusters), len(tp.Nodes)-len(tp.Clusters), len(reqs),
		countClass(reqs, trace.LC), countClass(reqs, trace.BE))

	stopProf, err := profcli.Start(*profile, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	start := time.Now()
	sys := core.New(opts)
	if tsrv != nil {
		tsrv.SetSource(sys.Metrics.Registry(), tee, telemetry.RunInfo{
			System:     *system,
			Scenario:   *pattern,
			Seed:       *seed,
			PeriodMs:   float64(sys.Metrics.Period) / float64(time.Millisecond),
			DurationMs: float64(*duration+*drain) / float64(time.Millisecond),
			SampleRate: sys.Tracer.Sampler().Rate(),
		})
	}
	sys.Inject(reqs)
	sys.Run(*duration + *drain)
	elapsed := time.Since(start)

	if wsink != nil {
		flushErr := wsink.Flush()
		fmt.Printf("trace: %d events, %d spans, %d decisions (%d lines) -> %s\n",
			sys.Tracer.Emitted(), sys.Tracer.SpanCount(), sys.Tracer.DecisionCount(),
			wsink.Lines, *traceOut)
		if wsink.Dropped > 0 || wsink.Err() != nil {
			fmt.Fprintf(os.Stderr, "trace: %d lines dropped (%v)\n", wsink.Dropped, wsink.Err())
		}
		if flushErr != nil {
			os.Exit(1)
		}
	}
	var rep *obs.Report
	if *report != "" || *digest {
		rep = sys.Report(*system, elapsed)
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rep.Write(f); err == nil {
			err = f.Close()
		} else {
			_ = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("report: %s (config digest %s)\n", *report, rep.ConfigDigest)
	}
	if *digest {
		// Replay contract: identical scenario + seed => identical digests
		// (the report digest is normalized over wall-clock fields).
		fmt.Printf("digest: stream=%s report=%s records=%d\n",
			dsink.Sum(), obs.ReportDigest(rep), dsink.Records())
	}

	sum := sys.Summarize(*system)
	tb := metrics.NewTable("summary", "metric", "value")
	tb.AddRowF("LC scheduler", sum.LCSched)
	tb.AddRowF("BE scheduler", sum.BESched)
	tb.AddRowF("QoS satisfaction rate", sum.QoSRate)
	tb.AddRowF("BE throughput (completed)", sum.Throughput)
	tb.AddRowF("mean utilization %", sum.MeanUtil*100)
	tb.AddRowF("abandoned LC requests", sum.Abandoned)
	tb.AddRowF("mean LC latency ms", sum.MeanLCLatMs)
	tb.AddRowF("virtual time simulated", *duration+*drain)
	tb.AddRowF("wall time", elapsed.Round(time.Millisecond))
	fmt.Println(tb.String())

	if sys.Chaos != nil || sys.Defrag != nil {
		ct := metrics.NewTable("chaos", "metric", "value")
		if inj := sys.Chaos; inj != nil {
			p := inj.Program()
			ct.AddRowF("fault program", p.Name)
			ct.AddRowF("program digest", p.Digest()[:16])
			ct.AddRowF("faults applied / cleared", fmt.Sprintf("%d / %d", inj.Applied, inj.Cleared))
			ct.AddRowF("flash-crowd requests injected", inj.Injected)
			sys.SLO.Finalize()
			attr, total := inj.AttributedEpisodes(sys.SLO)
			ct.AddRowF("SLO episodes in fault windows", fmt.Sprintf("%d / %d", attr, total))
		}
		ct.AddRowF("live migrations", sys.Engine.Migrations)
		if df := sys.Defrag; df != nil {
			ct.AddRowF("defrag passes / moves", fmt.Sprintf("%d / %d", df.Passes, df.Moves))
		}
		fmt.Println(ct.String())
	}

	if prof != nil {
		pt := metrics.NewTable("perf phases (host wall clock)",
			"phase", "calls", "total", "self", "alloc", "objects")
		for _, ps := range prof.Snapshot() {
			pt.AddRowF(ps.Phase, ps.Calls,
				time.Duration(ps.TotalNs).Round(time.Microsecond),
				time.Duration(ps.SelfNs).Round(time.Microsecond),
				ps.AllocBytes, ps.AllocObjects)
		}
		fmt.Println(pt.String())
		if be, ok := sys.BEScheduler().(*dcgbe.Scheduler); ok && be.Decisions > 0 {
			// Work counts, not wall time, but printed only here: no
			// digest or report sees them.
			bt := metrics.NewTable("DCG-BE inference work", "metric", "value")
			bt.AddRowF("picks", be.Decisions)
			bt.AddRowF("served from a warm cache", be.CacheHits)
			bt.AddRowF("actor rows recomputed", be.RowsRecomputed)
			bt.AddRowF("share of full forwards", fmt.Sprintf("%.3f",
				float64(be.RowsRecomputed)/float64(be.Decisions*int64(len(sys.Engine.Nodes())))))
			fmt.Println(bt.String())
		}
	}

	if *series {
		m := sys.Metrics
		st := metrics.NewTable("per-period series (800ms periods)",
			"period", "util", "lc-util", "be-util", "qos", "be-done", "abandoned", "p95-ms")
		for i := range m.UtilSeries.Values {
			st.AddRowF(i,
				m.UtilSeries.Values[i], m.LCUtilSeries.Values[i], m.BEUtilSeries.Values[i],
				m.QoSRateSeries.Values[i], m.ThroughputSer.Values[i],
				m.AbandonedSeries.Values[i], m.TailLatencySer.Values[i])
		}
		fmt.Println(st.String())
	}

	if *verify {
		v := sys.Verifier
		fmt.Printf("verify: %d checks, %d violation(s)\n", v.Checks, v.Total)
		if err := v.Err(); err != nil {
			for _, viol := range v.Violations {
				fmt.Fprintf(os.Stderr, "verify: %s\n", viol)
			}
			os.Exit(1)
		}
	}

	if tsrv != nil {
		if *linger > 0 {
			fmt.Printf("telemetry: lingering %s for late scrapes\n", *linger)
			time.Sleep(*linger)
		}
		_ = tsrv.Close()
	}
}

func countClass(reqs []trace.Request, c trace.Class) int {
	n := 0
	for _, r := range reqs {
		if r.Class == c {
			n++
		}
	}
	return n
}

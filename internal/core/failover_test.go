package core

import (
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/trace"
)

// TestFailoverReroutesAroundDeadNodes injects a mid-run failure of half
// of one cluster's workers and checks that (a) all LC requests are still
// accounted for, (b) the system keeps satisfying most of them and (c)
// displaced requests were re-dispatched rather than dropped.
func TestFailoverReroutesAroundDeadNodes(t *testing.T) {
	tp := topo.PhysicalTestbed()
	sys := New(Tango(tp, 5))
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, 12*time.Second, 5)
	gen.LCRatePerSec = 60
	gen.BERatePerSec = 20
	gen.ClusterWeights = []float64{4, 1, 1, 1}
	reqs := trace.Generate(gen)
	sys.Inject(reqs)

	victims := tp.Cluster(0).Workers[:2]
	for _, v := range victims {
		sys.FailNode(v, 4*time.Second)
		sys.RecoverNode(v, 8*time.Second)
	}
	sys.Run(18 * time.Second)

	m := sys.Metrics
	if m.LC.Completed+m.LC.Abandoned != m.LC.Arrived {
		t.Fatalf("LC accounting broken: %d + %d != %d", m.LC.Completed, m.LC.Abandoned, m.LC.Arrived)
	}
	if m.LC.Rate() < 0.8 {
		t.Fatalf("QoS collapsed under failover: %.3f", m.LC.Rate())
	}
	if m.BE.Completed == 0 {
		t.Fatal("BE starved by failover")
	}
	// Nodes really recovered.
	for _, v := range victims {
		if sys.Engine.Node(v).Down() {
			t.Fatalf("node %d still down", v)
		}
	}
}

// TestFailoverWholeClusterDown fails every worker of one cluster: its LC
// traffic must spill to geo-nearby clusters via DSS-LC.
func TestFailoverWholeClusterDown(t *testing.T) {
	tp := topo.PhysicalTestbed()
	sys := New(Tango(tp, 6))
	gen := trace.DefaultGenConfig([]topo.ClusterID{0}, trace.P3, 8*time.Second, 6)
	gen.LCRatePerSec = 30
	gen.BERatePerSec = 10
	sys.Inject(trace.Generate(gen))
	for _, w := range tp.Cluster(0).Workers {
		sys.FailNode(w, 0)
	}
	sys.Run(14 * time.Second)
	m := sys.Metrics
	if m.LC.Completed == 0 {
		t.Fatal("no LC requests completed with the local cluster down")
	}
	// Everything ran remotely, so check the completion rate is still high.
	if rate := float64(m.LC.Completed) / float64(m.LC.Arrived); rate < 0.9 {
		t.Fatalf("completion rate %.3f with nearby clusters available", rate)
	}
}

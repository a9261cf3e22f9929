package core

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/res"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The default DSS-LC honours footnote 4: with every pair of clusters
// at least 6° (>500 km) apart, no cluster has a geo neighbour, so a hot
// cluster's overload must stay home: no completed LC request may run
// outside its arrival cluster.
func TestGeoRadiusBoundsDefaultDSSLC(t *testing.T) {
	b := topo.NewBuilder()
	workers := make([]res.Vector, 4)
	for i := range workers {
		workers[i] = res.V(4000, 8192, 500)
	}
	for _, loc := range [][2]float64{{30, 110}, {30, 116}, {36, 110}, {36, 116}} {
		b.AddCluster(loc[0], loc[1], res.V(8000, 16384, 1000), workers)
	}
	tp := b.Build()
	var cs []topo.ClusterID
	for _, c := range tp.Clusters {
		cs = append(cs, c.ID)
	}
	gen := trace.DefaultGenConfig(cs, trace.P3, 8*time.Second, 11)
	gen.LCRatePerSec = 220
	gen.BERatePerSec = 60
	gen.ClusterWeights = []float64{6, 1, 1, 1}

	o := Tango(tp, 11)
	completed, away := 0, 0
	o.OnOutcome = func(out engine.Outcome) {
		if out.Req.Class != trace.LC || !out.Completed {
			return
		}
		completed++
		if tp.Node(out.Req.Target).Cluster != out.Req.Cluster {
			away++
		}
	}
	sys := New(o)
	sys.Inject(trace.Generate(gen))
	sys.Run(10 * time.Second)
	if completed == 0 {
		t.Fatal("no LC request completed")
	}
	if away != 0 {
		t.Fatalf("%d of %d completed LC requests ran outside their cluster with no geo neighbour", away, completed)
	}
}

// An LC or BE factory returning a type that implements no scheduler
// interface is a configuration error: core.New must refuse it, even for
// a run that never carries traffic of that class.
func TestNewPanicsOnUnknownSchedulerType(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(o *Options)
	}{
		{"LC", func(o *Options) { o.MakeLC = func(*engine.Engine, int64) any { return struct{}{} } }},
		{"BE", func(o *Options) { o.MakeBE = func(*engine.Engine, int64) any { return "not a scheduler" } }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("core.New accepted an unknown %s scheduler type", tc.name)
				}
			}()
			o := Tango(smallTopo(), 1)
			tc.set(&o)
			sys := New(o)
			sys.Run(time.Second) // no traffic: no dispatch round ever sees a request
		})
	}
}

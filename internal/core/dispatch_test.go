package core

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/topo"
	"repro/internal/trace"
)

// A caller-supplied DSS-LC keeps its own GeoRadiusKm (footnote 4): core
// wires its observers but leaves the radius alone. On the testbed every
// pair of clusters is farther apart than 50 km, so with that radius a
// hot cluster's overload must stay home: no completed LC request may
// run outside its arrival cluster.
func TestGeoRadiusBoundsDefaultDSSLC(t *testing.T) {
	tp := topo.PhysicalTestbed()
	var cs []topo.ClusterID
	for _, c := range tp.Clusters {
		cs = append(cs, c.ID)
	}
	gen := trace.DefaultGenConfig(cs, trace.P3, 8*time.Second, 11)
	gen.LCRatePerSec = 220
	gen.BERatePerSec = 60
	gen.ClusterWeights = []float64{6, 1, 1, 1}

	o := Tango(tp, 11)
	o.MakeLC = func(e *engine.Engine, seed int64) any {
		sh := shard.New(e, seed, 1, 0)
		sh.GeoRadiusKm = 50
		return sh
	}
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
		t.Fatalf("%d of %d completed LC requests ran outside their cluster with a 50 km radius", away, completed)
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

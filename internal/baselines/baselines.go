// Package baselines configures the comparison systems of §7.3 as
// core.System options:
//
//   - K8sNative — vanilla Kubernetes co-location: static per-class
//     resource partitions (sized from the trace usage ratio, §7.1) and
//     round-robin traffic scheduling for both classes.
//   - CERES [40] — a container-based elastic resource management system:
//     it gets the same elastic local allocation machinery as Tango
//     (regulations + idle-maximizing boost through D-VPA-style resizing)
//     but only a local resource management scheme — requests are served
//     inside their arrival cluster, so distributed, heterogeneous edge
//     resources go unused ("CERES only provides a local resource
//     management scheme, which cannot effectively utilize distributed
//     and heterogeneous edge resources").
//   - DSACO [34] — a distributed scheduling framework based on Soft
//     Actor-Critic: intelligent offloading across clusters (SAC agents
//     with geo-bounded actions for LC, global for BE) but no
//     mixed-workload resource management — nodes run the unordered
//     greedy allocation of native co-location.
package baselines

import (
	"repro/internal/core"
	"repro/internal/dcgbe"
	"repro/internal/engine"
	"repro/internal/hrm"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
)

// LocalOnly restricts any inner scheduler to the request's own cluster —
// the CERES behaviour of managing resources locally only.
type LocalOnly struct {
	Engine *engine.Engine
	Inner  sched.Scheduler
}

// Name implements sched.Scheduler.
func (l *LocalOnly) Name() string { return "local-" + l.Inner.Name() }

// Pick implements sched.Scheduler, ignoring the offered candidates and
// using only the arrival cluster's workers.
func (l *LocalOnly) Pick(r *engine.Request, _ []*engine.Node) (topo.NodeID, bool) {
	var cands []*engine.Node
	for _, w := range l.Engine.Topology().WorkersOf(r.Cluster) {
		cands = append(cands, l.Engine.Node(w))
	}
	return l.Inner.Pick(r, cands)
}

// K8sNative returns the vanilla-K8s configuration. The static partition
// is sized from the workload trace, as in §7.1.
func K8sNative(t *topo.Topology, reqs []trace.Request, seed int64) core.Options {
	return core.Options{
		Topo: t, Seed: seed,
		Policy:    hrm.NewStaticPartition(trace.DefaultCatalog(), reqs),
		MakeLC:    func(e *engine.Engine, seed int64) any { return &sched.RoundRobin{} },
		MakeBE:    func(e *engine.Engine, seed int64) any { return &sched.RoundRobin{} },
		Reassure:  false,
		Boost:     false,
		CentralBE: false,
	}
}

// CERES returns the CERES configuration: elastic local management,
// local-only dispatch.
func CERES(t *topo.Topology, seed int64) core.Options {
	return core.Options{
		Topo: t, Seed: seed,
		Policy: hrm.NewRegulations(),
		MakeLC: func(e *engine.Engine, seed int64) any {
			return &LocalOnly{Engine: e, Inner: sched.LoadGreedy{}}
		},
		MakeBE: func(e *engine.Engine, seed int64) any {
			return &LocalOnly{Engine: e, Inner: sched.LoadGreedy{}}
		},
		Reassure:     false,
		Boost:        true,
		CentralBE:    false,
		ScaleLatency: hrm.DVPAOpLatency,
	}
}

// DSACO returns the DSACO configuration: SAC-driven offloading without
// mixed-service resource management.
func DSACO(t *topo.Topology, seed int64) core.Options {
	return core.Options{
		Topo: t, Seed: seed,
		Policy: engine.GreedyPolicy{},
		MakeLC: func(e *engine.Engine, seed int64) any {
			s := dcgbe.NewVariant(e, dcgbe.Variant{Agent: "sac"}, seed)
			s.AllowFn = geoAllow(e)
			return s
		},
		MakeBE: func(e *engine.Engine, seed int64) any {
			return dcgbe.NewVariant(e, dcgbe.Variant{Agent: "sac"}, seed)
		},
		Reassure:  false,
		Boost:     false,
		CentralBE: false,
	}
}

// geoAllow permits nodes whose cluster is the request's own or within
// topo.GeoRadiusKm of it.
func geoAllow(e *engine.Engine) func(*engine.Request, *engine.Node) bool {
	t := e.Topology()
	return func(r *engine.Request, n *engine.Node) bool {
		if n.Cluster == r.Cluster {
			return true
		}
		return t.DistanceKm(r.Cluster, n.Cluster) <= topo.GeoRadiusKm
	}
}

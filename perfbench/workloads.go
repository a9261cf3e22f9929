package main

import (
	"fmt"
	"time"

	"repro/internal/topo"
)

// workload is one named input set. The fleet is fixed per workload; the
// request trace is generated from the run's seed, so the same seed always
// replays the same inputs. Rates are system-wide requests per second
// under the P3 pattern (LC and BE both random).
type workload struct {
	name   string
	fleet  func() *topo.Topology
	lcRate float64
	beRate float64
	// horizon is the trace length; drain is the extra virtual time the
	// dispatchers keep running so queued work can finish.
	horizon time.Duration
	drain   time.Duration
	// shards > 1 routes LC dispatch through the region-sharded scheduler.
	shards int
	// runCost is the wall time of one run (process start, set-up and
	// Run) on a 2-vCPU host; it sizes how many runs --seconds buys.
	runCost time.Duration
	// confirm checks, from the traced runs, that the workload stresses
	// the layer it was chosen for.
	confirm func(e evidence) string
}

// evidence is what the traced runs of one seed measured: per-layer
// medians, and the median wall and CPU seconds of Run and QoS rate.
type evidence struct {
	L              map[string]float64
	wall, cpu, phi float64
}

// dualSpace is the 104-cluster, 1170-worker fleet of the paper's hybrid
// environment. Its layout seed is fixed so that every trace seed runs on
// the same fleet.
func dualSpace() *topo.Topology { return topo.DualSpace(100, 1) }

// workloads are the benchmark's input sets. Why each exists:
//
//   - testbed-mixed: a contended 16-worker testbed (φ≈0.91) that
//     exercises HRM admission, DSS-LC spill and, above all, DCG-BE online
//     training (a dozen training intervals per run).
//   - fleet-be: light LC load on the 1170-worker fleet, so DCG-BE
//     inference over every node dominates; training never fires there
//     (TrainEvery is 4·N).
//   - fleet-lc: heavy LC load with no BE, so the global DSS-LC solver
//     (graph build, Dijkstra) dominates and DCG-BE is bypassed.
//   - fleet-lc-shard4: fleet-lc's inputs through the 4-shard scheduler,
//     the only workload on the shard layer, its overflow pass and a
//     second core.
//
// Runs are kept short so that a run's median covers many of them. LC
// latency percentiles pool the samples of all runs, so a run needs no
// 1000 samples of its own for p99.
var workloads = []workload{
	{name: "testbed-mixed", fleet: topo.PhysicalTestbed, lcRate: 450, beRate: 40,
		horizon: 10 * time.Second, drain: 4 * time.Second, runCost: 1270 * time.Millisecond,
		confirm: func(e evidence) string {
			return verdict(e.L["dcgbe.train.s"] >= e.wall/2 && e.phi < 1,
				"dcgbe.train.s %.3f of %.3f s wall, lc_phi %.4f", e.L["dcgbe.train.s"], e.wall, e.phi)
		}},
	{name: "fleet-be", fleet: dualSpace, lcRate: 60, beRate: 10,
		horizon: 10 * time.Second, drain: 4 * time.Second, runCost: 3900 * time.Millisecond,
		confirm: func(e evidence) string {
			return verdict(e.L["dcgbe.infer.s"] >= e.wall/2 && e.L["dcgbe.train.calls"] == 0,
				"dcgbe.infer.s %.3f of %.3f s wall, %.0f trainings", e.L["dcgbe.infer.s"], e.wall, e.L["dcgbe.train.calls"])
		}},
	{name: "fleet-lc", fleet: dualSpace, lcRate: 2000,
		horizon: 3 * time.Second, drain: 2 * time.Second, runCost: 1850 * time.Millisecond,
		confirm: func(e evidence) string {
			return verdict(e.L["dsslc.s"] >= e.wall/2 && e.L["dcgbe.infer.calls"] == 0,
				"dsslc.s %.3f of %.3f s wall, %.0f inferences", e.L["dsslc.s"], e.wall, e.L["dcgbe.infer.calls"])
		}},
	{name: "fleet-lc-shard4", fleet: dualSpace, lcRate: 2000,
		horizon: 3 * time.Second, drain: 2 * time.Second, shards: 4, runCost: 540 * time.Millisecond,
		confirm: func(e evidence) string {
			return verdict(e.L["shard.solves"] > 0 && e.cpu > e.wall,
				"%.0f shard solves, %.3f s CPU over %.3f s wall, %.0f requests through the overflow pass",
				e.L["shard.solves"], e.cpu, e.wall, e.L["shard.overflow"])
		}},
}

func verdict(ok bool, format string, args ...any) string {
	if ok {
		return "confirmed: " + fmt.Sprintf(format, args...)
	}
	return "NOT MET: " + fmt.Sprintf(format, args...)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

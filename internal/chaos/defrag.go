package chaos

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/topo"
)

// The fixed parameters of the periodic defragmentation pass.
const (
	// DefragEvery is the pass period.
	DefragEvery = 800 * time.Millisecond
	// DefragMaxMoves caps migrations per pass so a pass never floods
	// the WAN with checkpoints.
	DefragMaxMoves = 4
	// defragHotUtil marks donors: nodes at or above this dominant-share
	// utilization shed their newest BE work.
	defragHotUtil = 0.75
	// defragColdUtil marks receivers: only nodes below this utilization
	// accept migrated work, keeping the pass monotone — a receiver can
	// never become a donor within the same pass.
	defragColdUtil = 0.60
)

// Defragmenter periodically batch-migrates BE pods off pressured nodes
// onto cold reachable ones (KubeDSM-style descheduling, built on
// engine.Migrate so every move replays deterministically).
type Defragmenter struct {
	eng *engine.Engine
	tp  *topo.Topology
	tr  *obs.Tracer

	// nodes is cached in topology order at construction; Score and Run
	// iterate it without allocating.
	nodes []*engine.Node

	// Counters feeding the tango_defrag_* gauges.
	Passes int64
	Moves  int64
}

// NewDefragmenter builds a defragmenter over the engine's workers.
func NewDefragmenter(e *engine.Engine) *Defragmenter {
	return &Defragmenter{
		eng:   e,
		tp:    e.Topology(),
		tr:    e.Tracer(),
		nodes: e.Nodes(),
	}
}

// hot reports whether a node is a donor candidate.
func (d *Defragmenter) hot(n *engine.Node) bool {
	return !n.Down() && n.Utilization() >= defragHotUtil && n.RunningBECount() > 0
}

// Score counts donor candidates — hot nodes with migratable BE work.
// A compact fleet scores 0 and Run becomes a no-op. The scan is
// allocation-free (BenchmarkDefragScore pins this down): it is the part
// of the pass that runs even when nothing is wrong.
func (d *Defragmenter) Score() int {
	hot := 0
	for _, n := range d.nodes {
		if d.hot(n) {
			hot++
		}
	}
	return hot
}

// Run performs one defragmentation pass: greedily migrate the newest
// BE request of each hot donor to the coldest reachable receiver that
// fits it, up to DefragMaxMoves. Returns the number of migrations started.
func (d *Defragmenter) Run() int {
	d.Passes++
	if d.Score() == 0 {
		return 0
	}
	moves := 0
	donors := int64(0)
	for _, src := range d.nodes {
		if moves >= DefragMaxMoves {
			break
		}
		if !d.hot(src) {
			continue
		}
		donors++
		id, typ, ok := src.NewestBE()
		if !ok {
			continue
		}
		var best *engine.Node
		for _, dst := range d.nodes {
			if dst == src || dst.Down() {
				continue
			}
			if dst.Utilization() >= defragColdUtil {
				continue
			}
			if !d.tp.Reachable(src.Cluster, dst.Cluster) {
				continue
			}
			if !dst.Free().Sub(dst.InTransit()).Fits(dst.EffectiveDemand(typ)) {
				continue
			}
			if best == nil || dst.Utilization() < best.Utilization() {
				best = dst
			}
		}
		if best == nil {
			continue
		}
		if !d.eng.Migrate(src.ID, best.ID, id) {
			// A refusal here means the fleet changed under us (e.g. the
			// request finished this tick); stop rather than thrash.
			break
		}
		moves++
	}
	d.Moves += int64(moves)
	if moves > 0 && d.tr.Enabled() {
		d.tr.Emit(obs.Ev(obs.EvDefrag).Val(float64(moves)).Au(donors))
	}
	return moves
}

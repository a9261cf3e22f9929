// Package chaos is the deterministic fault-injection subsystem
// (ROADMAP item 3): scripted or seed-randomized programs of node and
// cluster churn, WAN partitions, RTT storms, flash crowds and
// master/collector stalls, plus a periodic defragmentation pass that
// live-migrates BE work off pressured nodes (defrag.go).
//
// Every fault is applied — and, for windowed faults, cleared — by an
// ordinary sim event scheduled at Arm time, so a chaos run replays
// byte-identically under the same program and seed: the replay-digest
// contract of internal/check extends to faulty runs unchanged. The
// fault schedule itself hashes to a stable digest (Program.Digest),
// which the golden seed-stability tests pin.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/topo"
)

// Kind enumerates the fault types a program can schedule.
type Kind uint8

const (
	// NodeKill takes one worker down (Node); Span > 0 revives it after
	// the window, draining nothing — its work displaces immediately.
	NodeKill Kind = iota
	// ClusterKill takes every worker of a cluster down (Cluster).
	ClusterKill
	// Partition severs the WAN link between Cluster and Peer.
	Partition
	// RTTInflate multiplies the WAN RTT between Cluster and Peer by
	// Factor for the window (an "RTT storm").
	RTTInflate
	// FlashCrowd injects a burst trace at Cluster: the base workload
	// rates scaled by Factor over the window, shaped by the wavy/normal
	// generators.
	FlashCrowd
	// MasterStall pauses Cluster's LC dispatch rounds for the window
	// (queues keep filling; the backlog drains after).
	MasterStall
	// CollectorStall pauses the metrics collector for the window
	// (periods are skipped, not deferred).
	CollectorStall

	kindCount
)

var kindNames = [kindCount]string{
	NodeKill:       "node-kill",
	ClusterKill:    "cluster-kill",
	Partition:      "partition",
	RTTInflate:     "rtt-inflate",
	FlashCrowd:     "flash-crowd",
	MasterStall:    "master-stall",
	CollectorStall: "collector-stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Fault is one scripted event of a program.
type Fault struct {
	At   time.Duration
	Kind Kind
	// Node targets NodeKill; Cluster targets the cluster-scoped kinds;
	// Peer is the far side of Partition / RTTInflate.
	Node    topo.NodeID
	Cluster topo.ClusterID
	Peer    topo.ClusterID
	// Span is the fault window: the injector schedules the clearing
	// action (revive, heal, restore) Span after At. Span <= 0 means the
	// fault holds to the end of the run (stalls and flash crowds require
	// a positive Span).
	Span time.Duration
	// Factor scales RTTInflate (multiplier > 1) and FlashCrowd (rate
	// multiplier).
	Factor float64
}

// String renders the canonical one-line form hashed by Digest.
func (f Fault) String() string {
	return fmt.Sprintf("%d %s n%d c%d p%d %d %.4g",
		f.At.Microseconds(), f.Kind, f.Node, f.Cluster, f.Peer, f.Span.Microseconds(), f.Factor)
}

// Program is a named, ordered fault schedule.
type Program struct {
	Name string
	// Seed derives the flash-crowd burst traces (independent of the
	// scenario seed so the same program can ride different workloads).
	Seed   int64
	Faults []Fault
}

// Normalize sorts the faults by time (stable, so equal-time faults keep
// their scripted order).
func (p *Program) Normalize() {
	sort.SliceStable(p.Faults, func(i, j int) bool { return p.Faults[i].At < p.Faults[j].At })
}

// Digest hashes the canonical fault schedule — the golden fault-schedule
// tests pin it per seed, mirroring the replay-digest goldens.
func (p *Program) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d\n", p.Name, p.Seed)
	for _, f := range p.Faults {
		fmt.Fprintln(h, f.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RandConfig bounds Random's program generation: how many faults of
// each kind to draw.
type RandConfig struct {
	NodeChurn   int // worker kill+revive windows
	ClusterKill int // whole-cluster churn windows
	Partitions  int // WAN partition windows
	RTTStorms   int // RTT inflation windows
	FlashCrowds int // burst-injection windows
	Stalls      int // master stalls (plus one collector stall when > 0)
}

// Random draws a deterministic fault program over a topology: fault
// times land in the first three quarters of the horizon, windows span
// 10–30% of it (stalls 5–12%), so every window closes before the drain
// ends. Same (topology shape, horizon, seed, cfg) ⇒ same program.
func Random(t *topo.Topology, horizon time.Duration, seed int64, cfg RandConfig) Program {
	rng := rand.New(rand.NewSource(seed))
	p := Program{Name: fmt.Sprintf("random-%d", seed), Seed: seed}

	var workers []topo.NodeID
	for _, n := range t.Nodes {
		if n.Role == topo.Worker {
			workers = append(workers, n.ID)
		}
	}
	at := func() time.Duration {
		return horizon/8 + time.Duration(rng.Int63n(int64(horizon)*5/8))
	}
	span := func() time.Duration {
		return horizon/10 + time.Duration(rng.Int63n(int64(horizon)/5))
	}
	shortSpan := func() time.Duration {
		return horizon/20 + time.Duration(rng.Int63n(int64(horizon)*7/100))
	}
	cluster := func() topo.ClusterID {
		return t.Clusters[rng.Intn(len(t.Clusters))].ID
	}
	pair := func() (topo.ClusterID, topo.ClusterID) {
		a := cluster()
		b := cluster()
		for b == a && len(t.Clusters) > 1 {
			b = cluster()
		}
		return a, b
	}

	for i := 0; i < cfg.NodeChurn && len(workers) > 0; i++ {
		p.Faults = append(p.Faults, Fault{
			At: at(), Kind: NodeKill, Node: workers[rng.Intn(len(workers))], Span: span(),
		})
	}
	for i := 0; i < cfg.ClusterKill; i++ {
		p.Faults = append(p.Faults, Fault{At: at(), Kind: ClusterKill, Cluster: cluster(), Span: span()})
	}
	if len(t.Clusters) > 1 {
		for i := 0; i < cfg.Partitions; i++ {
			a, b := pair()
			p.Faults = append(p.Faults, Fault{At: at(), Kind: Partition, Cluster: a, Peer: b, Span: span()})
		}
		for i := 0; i < cfg.RTTStorms; i++ {
			a, b := pair()
			p.Faults = append(p.Faults, Fault{
				At: at(), Kind: RTTInflate, Cluster: a, Peer: b, Span: span(),
				Factor: 2 + 4*rng.Float64(),
			})
		}
	}
	for i := 0; i < cfg.FlashCrowds; i++ {
		sp := span()
		if sp < 200*time.Millisecond {
			sp = 200 * time.Millisecond // at least two generator slots
		}
		p.Faults = append(p.Faults, Fault{
			At: at(), Kind: FlashCrowd, Cluster: cluster(), Span: sp,
			Factor: 2 + 3*rng.Float64(),
		})
	}
	for i := 0; i < cfg.Stalls; i++ {
		p.Faults = append(p.Faults, Fault{At: at(), Kind: MasterStall, Cluster: cluster(), Span: shortSpan()})
	}
	if cfg.Stalls > 0 {
		p.Faults = append(p.Faults, Fault{At: at(), Kind: CollectorStall, Span: shortSpan()})
	}
	p.Normalize()
	return p
}

// Preset builds one of the named CLI programs over a topology. Known
// names: churn (node+cluster kills), partition (WAN cuts + RTT storms),
// flash (flash crowds + stalls), all (every fault kind, one or two
// windows each plus a third node churn).
func Preset(name string, t *topo.Topology, horizon time.Duration, seed int64) (Program, error) {
	var cfg RandConfig
	switch name {
	case "churn":
		cfg = RandConfig{NodeChurn: 3, ClusterKill: 1}
	case "partition":
		cfg = RandConfig{Partitions: 2, RTTStorms: 2}
	case "flash":
		cfg = RandConfig{FlashCrowds: 2, Stalls: 1}
	case "all":
		cfg = RandConfig{NodeChurn: 3, ClusterKill: 1, Partitions: 2, RTTStorms: 1, FlashCrowds: 1, Stalls: 1}
	default:
		return Program{}, fmt.Errorf("chaos: unknown preset %q (churn|partition|flash|all)", name)
	}
	p := Random(t, horizon, seed, cfg)
	p.Name = name
	return p, nil
}

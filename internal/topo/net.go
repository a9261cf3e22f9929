// WAN fault overlay: partitions and RTT inflation layered over the
// static latency model, so the chaos injector can degrade inter-cluster
// links mid-run without touching the topology itself. A pristine
// topology (overlay never created) behaves bit-identically to one
// without this file — the replay-digest contract for chaos-free runs.
package topo

import "time"

// PartitionRTT is the effective round-trip time across a partitioned
// WAN link. It is deliberately finite (not an error) so that anything
// that slips past the reachability guards still terminates: a stray
// cross-partition transfer just takes absurdly long, it does not hang
// the simulation.
const PartitionRTT = 10 * time.Second

// linkKey is a symmetric cluster pair (smaller ID first).
type linkKey struct{ a, b ClusterID }

func keyOf(a, b ClusterID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// NetOverlay holds the mutable WAN fault state of a topology: severed
// links and per-link RTT inflation factors. All methods treat links as
// symmetric.
type NetOverlay struct {
	cut       map[linkKey]bool
	rttFactor map[linkKey]float64
}

// Net returns the topology's fault overlay, creating it on first use.
// Callers that only read should prefer Reachable, which does not
// materialize the overlay.
func (t *Topology) Net() *NetOverlay {
	if t.net == nil {
		t.net = &NetOverlay{
			cut:       map[linkKey]bool{},
			rttFactor: map[linkKey]float64{},
		}
	}
	return t.net
}

// Reachable reports whether the WAN link between two clusters is up.
// Intra-cluster traffic is always reachable.
func (t *Topology) Reachable(a, b ClusterID) bool {
	if a == b || t.net == nil {
		return true
	}
	return !t.net.cut[keyOf(a, b)]
}

// Partition severs the WAN link between two clusters (no-op for a==b).
func (o *NetOverlay) Partition(a, b ClusterID) {
	if a == b {
		return
	}
	o.cut[keyOf(a, b)] = true
}

// Heal restores a severed WAN link.
func (o *NetOverlay) Heal(a, b ClusterID) {
	delete(o.cut, keyOf(a, b))
}

// SetRTTFactor inflates the WAN RTT between two clusters by the given
// factor (>1 degrades, <=0 or 1 clears).
func (o *NetOverlay) SetRTTFactor(a, b ClusterID, f float64) {
	if a == b {
		return
	}
	if f <= 0 || f == 1 {
		o.ClearRTTFactor(a, b)
		return
	}
	o.rttFactor[keyOf(a, b)] = f
}

// ClearRTTFactor removes the RTT inflation on a link.
func (o *NetOverlay) ClearRTTFactor(a, b ClusterID) {
	delete(o.rttFactor, keyOf(a, b))
}

// wanAdjust applies the overlay to a computed WAN RTT.
func (t *Topology) wanAdjust(a, b ClusterID, rtt time.Duration) time.Duration {
	if t.net == nil {
		return rtt
	}
	k := keyOf(a, b)
	if t.net.cut[k] {
		return PartitionRTT
	}
	if f, ok := t.net.rttFactor[k]; ok {
		return time.Duration(float64(rtt) * f)
	}
	return rtt
}

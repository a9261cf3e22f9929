// Package hrm implements Harmonious Resource Management (§4), the
// resource-allocation half of Tango:
//
//   - Regulations — the §4.1 resource-usage regulations as an engine
//     Policy: LC services take priority, drawing first on idle resources
//     and then preempting BE services (CPU/bandwidth shares are
//     transferred without stopping the BE container; memory is reclaimed
//     by evicting and later restarting BE requests). BE services may only
//     use idle resources, but maximize them via the Booster.
//   - DVPA — the §4.2 dynamic vertical pod autoscaler: resizes pod- and
//     container-level cgroups in the kernel-safe order with a ~23 ms
//     per-operation latency and no container restart, in contrast to the
//     native K8s VPA's delete-and-rebuild.
//   - ReAssurer — the §4.3 QoS re-assurance mechanism (Algorithm 1):
//     every 100 ms window it computes the slack score δ = 1 − ξ/γ from
//     the p95 tail latency ξ and QoS target γ of each LC service on each
//     node, increasing the minimum requested resources when δ < α and
//     decreasing them when δ > β, in small steps to avoid perturbation.
//   - StaticPartition — the "K8s-native" allocation baseline: fixed
//     per-class resource partitions sized from the trace's usage ratio.
package hrm

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cgroup"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// DVPAOpLatency is the measured cost of one dynamic scaling operation
// (§7.1: "average time taken to perform a single scaling operation ...
// 23ms").
const DVPAOpLatency = 23 * time.Millisecond

// The fixed HRM parameters.
const (
	// minKeepFrac is the fraction of a BE request's demand that LC
	// preemption must leave it (compressible resources only).
	minKeepFrac = 0.25

	// boostInterval is the Booster's cadence; boostReserveFrac of each
	// node's CPU is left unboosted as headroom for arriving LC requests.
	boostInterval    = 200 * time.Millisecond
	boostReserveFrac = 0.1

	// alpha and beta are the re-assurer's slack thresholds (α < β,
	// §4.3) separating poor / stable / excellent quality.
	alpha = 0.1
	beta  = 0.5
	// stepFrac is the small adjustment proportion per tick.
	stepFrac = 0.1
	// maxFactor caps a node's override at maxFactor × MinDemand.
	maxFactor = 3
	// reassureWindow is the collection window (100 ms in the paper).
	reassureWindow = 100 * time.Millisecond
)

// Regulations is the HRM admission/preemption policy (§4.1).
type Regulations struct {
	// DisablePreemption turns off BE preemption (ablation).
	DisablePreemption bool
}

// NewRegulations returns the default HRM policy.
func NewRegulations() *Regulations { return &Regulations{} }

// Name implements engine.Policy.
func (p *Regulations) Name() string { return "hrm" }

// Admit implements engine.Policy.
func (p *Regulations) Admit(n *engine.Node, r *engine.Request) (res.Vector, bool) {
	d := n.EffectiveDemand(r.Type)
	if r.Class == trace.BE {
		if n.Free().Fits(d) {
			return d, true
		}
		// Reclaim boost headroom from running BE peers (keep their full
		// demand) so a waiting BE request is not starved by boosted ones.
		need := d.Sub(n.Free()).Max(res.Vector{})
		if need.MemoryMiB == 0 && (need.MilliCPU > 0 || need.BWMbps > 0) {
			n.CompressBE(need, 1.0)
			if n.Free().Fits(d) {
				return d, true
			}
		}
		return res.Vector{}, false
	}
	// Latency-critical: idle first.
	if n.Free().Fits(d) {
		return d, true
	}
	if p.DisablePreemption {
		return res.Vector{}, false
	}
	// Preemption is allowed when idle+BE-held resources cover the demand.
	if !n.AvailableForLC().Fits(d) {
		return res.Vector{}, false
	}
	// First transfer compressible shares (CPU, bandwidth) from running BE
	// requests without stopping them.
	free := n.Free()
	needCPU := d.MilliCPU - free.MilliCPU
	needBW := d.BWMbps - free.BWMbps
	if needCPU > 0 || needBW > 0 {
		var want res.Vector
		if needCPU > 0 {
			want.MilliCPU = needCPU
		}
		if needBW > 0 {
			want.BWMbps = needBW
		}
		n.CompressBE(want, minKeepFrac)
	}
	if n.Free().Fits(d) {
		return d, true
	}
	// Compression was not enough (incompressible memory, or compression
	// floors): evict-and-restart BE until the demand fits. Because
	// AvailableForLC fits, evicting every BE is guaranteed sufficient,
	// so admission always succeeds here and queue draining progresses.
	if n.EvictBEUntil(d) {
		return d, true
	}
	return res.Vector{}, false
}

// StaticPartition is the native-K8s baseline: each class owns a fixed
// slice of every node (initialized "according to the total resource
// usage ratio in the trace", §7.1) and requests never cross it.
type StaticPartition struct {
	// LCFraction of each node's capacity reserved for LC services.
	LCFraction float64
}

// NewStaticPartition sizes the LC partition from a trace's aggregate
// CPU-work ratio.
func NewStaticPartition(cat *trace.Catalog, reqs []trace.Request) *StaticPartition {
	var lcWork, total float64
	for _, r := range reqs {
		w := float64(cat.Type(r.Type).Work)
		total += w
		if r.Class == trace.LC {
			lcWork += w
		}
	}
	f := 0.5
	if total > 0 {
		f = lcWork / total
	}
	if f < 0.1 {
		f = 0.1
	}
	if f > 0.9 {
		f = 0.9
	}
	return &StaticPartition{LCFraction: f}
}

// Name implements engine.Policy.
func (p *StaticPartition) Name() string { return "k8s-static" }

// Admit implements engine.Policy.
func (p *StaticPartition) Admit(n *engine.Node, r *engine.Request) (res.Vector, bool) {
	d := n.EffectiveDemand(r.Type)
	if !n.Free().Fits(d) {
		return res.Vector{}, false
	}
	if r.Class == trace.LC {
		lcCap := n.Capacity.ScaleFloat(p.LCFraction)
		if !lcCap.Fits(n.UsedByLC().Add(d)) {
			return res.Vector{}, false
		}
		return d, true
	}
	beCap := n.Capacity.ScaleFloat(1 - p.LCFraction)
	if !beCap.Fits(n.UsedByBE().Add(d)) {
		return res.Vector{}, false
	}
	return d, true
}

// Booster periodically grants idle CPU to running BE requests so they
// "maximize the use of idle resources" (Figure 4(a)). LC admissions later
// claw the boost back through compression.
type Booster struct {
	Engine *engine.Engine
}

// NewBooster creates a booster with 200 ms cadence and 10% headroom.
func NewBooster(e *engine.Engine) *Booster { return &Booster{Engine: e} }

// Start registers the periodic boost on the simulator; cancel via the
// returned event.
func (b *Booster) Start(s *sim.Simulator) *sim.Event {
	return s.Every(boostInterval, b.Tick)
}

// Tick performs one boost pass over all nodes.
func (b *Booster) Tick() {
	for _, n := range b.Engine.Nodes() {
		reserve := int64(float64(n.Capacity.MilliCPU) * boostReserveFrac)
		spare := n.Free().MilliCPU - reserve
		if spare <= 0 {
			continue
		}
		ids := n.RunningBE()
		if len(ids) == 0 {
			continue
		}
		per := spare / int64(len(ids))
		if per <= 0 {
			continue
		}
		for _, id := range ids {
			n.GrantBE(id, per)
		}
	}
}

// DVPA is the dynamic vertical pod autoscaler component (§4.2). It
// resizes the pod- and container-level cgroups through the ordered
// protocol of Figure 5 and accounts one DVPAOpLatency per operation;
// the container keeps running throughout (no delete-and-rebuild).
type DVPA struct {
	Ops int64
	// Tracer and Now, when both set, emit one "dvpa-resize" span per
	// operation covering [Now, Now+DVPAOpLatency] with the container path.
	Tracer *obs.Tracer
	Now    func() time.Duration
}

// NewDVPA returns a D-VPA with the measured 23 ms operation latency.
func NewDVPA() *DVPA { return &DVPA{} }

// Resize applies the ordered two-level resize and returns the operation
// latency the caller should account (the container is NOT interrupted).
func (d *DVPA) Resize(h *cgroup.Hierarchy, pod, container *cgroup.Group, target res.Vector) (time.Duration, error) {
	l := cgroup.FromVector(target)
	if err := h.ResizePodAndContainer(pod, container, l, l); err != nil {
		return 0, fmt.Errorf("hrm: d-vpa resize: %w", err)
	}
	d.Ops++
	if tr := d.Tracer; tr.Enabled() && d.Now != nil {
		at := d.Now()
		tr.EmitSpan(obs.Sp(obs.SpanDVPA, at, at+DVPAOpLatency).Note(container.Path()))
	}
	return DVPAOpLatency, nil
}

// ReAssurer implements Algorithm 1. It observes LC request outcomes,
// keeps a 100 ms tail-latency window per (node, service), and adjusts
// each node's AllocOverride between the catalog minimum and maxFactor
// times it.
type ReAssurer struct {
	Engine *engine.Engine

	windows map[topo.NodeID]map[trace.TypeID]*metrics.Window
	// Adjustments counts override changes (for reporting).
	Adjustments int64
	// Tracer, when set, receives one reassure event per override change
	// (Value = slack δ, Aux = new minimum mCPU, Detail = grow/shrink).
	Tracer *obs.Tracer
}

// NewReAssurer returns the mechanism with the paper-shaped parameters:
// α = 0.1, β = 0.5, 10% steps, override capped at 3× the minimum
// demand.
func NewReAssurer(e *engine.Engine) *ReAssurer {
	return &ReAssurer{Engine: e, windows: map[topo.NodeID]map[trace.TypeID]*metrics.Window{}}
}

// Observe feeds one LC outcome into the windows. Call it from the
// engine's outcome fan-out.
func (ra *ReAssurer) Observe(o engine.Outcome) {
	if o.Req.Class != trace.LC || o.Req.Target < 0 {
		return
	}
	byType, ok := ra.windows[o.Req.Target]
	if !ok {
		byType = map[trace.TypeID]*metrics.Window{}
		ra.windows[o.Req.Target] = byType
	}
	w, ok := byType[o.Req.Type]
	if !ok {
		w = metrics.NewWindow(reassureWindow)
		byType[o.Req.Type] = w
	}
	w.Observe(o.FinishedAt, float64(o.Latency)/float64(time.Millisecond))
}

// Slack returns δ_k(n_i) = 1 − ξ/γ for a node and service, and false if
// there are no samples in the window.
func (ra *ReAssurer) Slack(node topo.NodeID, t trace.TypeID) (float64, bool) {
	byType, ok := ra.windows[node]
	if !ok {
		return 0, false
	}
	w, ok := byType[t]
	if !ok {
		return 0, false
	}
	p95, ok := w.Percentile(95)
	if !ok {
		return 0, false
	}
	gamma := float64(ra.Engine.Catalog().Type(t).QoSTarget) / float64(time.Millisecond)
	if gamma <= 0 {
		return 0, false
	}
	return 1 - p95/gamma, true
}

// Start registers the periodic adjustment tick.
func (ra *ReAssurer) Start(s *sim.Simulator) *sim.Event {
	return s.Every(reassureWindow, ra.Tick)
}

// Tick runs one pass of Algorithm 1 over every (node, LC service) pair.
// Pairs are visited in sorted (node, service) order: the adjustments
// commute, but the emitted EvReassure events are part of the trace
// stream, and the replay contract (internal/check) requires the stream
// to be byte-identical across same-seed runs — map order is not.
func (ra *ReAssurer) Tick() {
	nodeIDs := make([]topo.NodeID, 0, len(ra.windows))
	for id := range ra.windows {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })
	for _, nodeID := range nodeIDs {
		byType := ra.windows[nodeID]
		n := ra.Engine.Node(nodeID)
		types := make([]trace.TypeID, 0, len(byType))
		for t := range byType {
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, t := range types {
			slack, ok := ra.Slack(nodeID, t)
			if !ok {
				continue
			}
			min := ra.Engine.Catalog().Type(t).MinDemand
			cur := n.EffectiveDemand(t)
			// Only the compressible CPU dimension is adjusted: granting
			// more memory cannot speed a request up, it only reduces
			// concurrency.
			step := int64(float64(min.MilliCPU)*stepFrac + 0.5)
			switch {
			case slack < alpha: // poor: grant more resources
				// Growing per-request allocations on a saturated node
				// only deepens queueing; grant more only while the node
				// has headroom (the re-assurer tunes processing speed,
				// not admission).
				if n.Utilization() > 0.85 {
					continue
				}
				next := cur
				next.MilliCPU += step
				if maxCPU := int64(float64(min.MilliCPU) * maxFactor); next.MilliCPU > maxCPU {
					next.MilliCPU = maxCPU
				}
				if next != cur {
					n.AllocOverride[t] = next
					ra.Adjustments++
					if tr := ra.Tracer; tr.Enabled() {
						tr.Emit(obs.Ev(obs.EvReassure).Node(int(nodeID)).Service(int(t)).
							Val(slack).Au(next.MilliCPU).Note("grow"))
					}
				}
			case slack > beta: // excellent: release resources
				next := cur
				next.MilliCPU -= step
				if next.MilliCPU < min.MilliCPU {
					next.MilliCPU = min.MilliCPU
				}
				if next != cur {
					n.AllocOverride[t] = next
					ra.Adjustments++
					if tr := ra.Tracer; tr.Enabled() {
						tr.Emit(obs.Ev(obs.EvReassure).Node(int(nodeID)).Service(int(t)).
							Val(slack).Au(next.MilliCPU).Note("shrink"))
					}
				}
			}
		}
	}
}

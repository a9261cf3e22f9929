// Package cgroup models the Linux control-group hierarchy that Kubernetes
// builds under /sys/fs/cgroup (Figure 5 of the paper): a kubepods root,
// QoS-level groups (guaranteed / burstable / besteffort), pod-level groups
// and container-level groups.
//
// Tango's D-VPA component performs vertical scaling by writing cpu.shares,
// cpu.cfs_quota_us and memory limits directly into this hierarchy instead
// of deleting and re-creating the pod. The kernel requires a child's limit
// to never exceed its parent's, so resizes must be ordered: grow the pod
// group before the container group, shrink the container group before the
// pod group. This package enforces exactly that invariant, which is the
// correctness core of D-VPA (§4.2).
package cgroup

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/res"
)

// QoSClass mirrors the Kubernetes QoS levels that form the second layer
// of the kubepods hierarchy.
type QoSClass int

const (
	Guaranteed QoSClass = iota
	Burstable
	BestEffort
)

func (q QoSClass) String() string {
	switch q {
	case Guaranteed:
		return "guaranteed"
	case Burstable:
		return "burstable"
	case BestEffort:
		return "besteffort"
	default:
		return fmt.Sprintf("QoSClass(%d)", int(q))
	}
}

// ErrNotFound is returned when a path does not name an existing group.
var ErrNotFound = errors.New("cgroup: not found")

// ErrOrder is returned when a resize would violate the parent/child limit
// invariant — the caller applied the expand/shrink steps in the wrong
// order, exactly the failure mode §4.2 warns about.
var ErrOrder = errors.New("cgroup: resize violates parent limit (wrong modification order)")

// Limits are the controls D-VPA writes. CPUQuota is in millicores (the
// model's equivalent of cfs_quota_us/cfs_period_us), CPUShares is the
// relative weight, MemoryMiB the hard memory limit.
type Limits struct {
	CPUQuota  int64 // millicores; 0 means unlimited (inherit)
	CPUShares int64 // relative weight; informational for schedulers
	MemoryMiB int64 // MiB; 0 means unlimited (inherit)
}

// FromVector derives Limits from a resource vector (shares scale with CPU,
// 1024 shares per core as in the kernel default).
func FromVector(v res.Vector) Limits {
	return Limits{CPUQuota: v.MilliCPU, CPUShares: v.MilliCPU * 1024 / 1000, MemoryMiB: v.MemoryMiB}
}

// Vector converts Limits back to a resource vector (bandwidth is not a
// cgroup-controlled resource; it is managed by the traffic dispatchers).
func (l Limits) Vector() res.Vector {
	return res.V(l.CPUQuota, l.MemoryMiB, 0)
}

// Group is one node in the cgroup tree.
type Group struct {
	name     string
	parent   *Group
	children map[string]*Group
	limits   Limits
	writes   uint64 // number of limit modifications, for accounting
}

// Name returns the group's path component.
func (g *Group) Name() string { return g.name }

// Path returns the slash-separated path from the hierarchy root.
func (g *Group) Path() string {
	if g.parent == nil {
		return g.name
	}
	return g.parent.Path() + "/" + g.name
}

// Limits returns the group's current limits.
func (g *Group) Limits() Limits { return g.limits }

// Writes returns how many times the group's limits have been modified.
func (g *Group) Writes() uint64 { return g.writes }

// Children returns the child group names in sorted order.
func (g *Group) Children() []string {
	names := make([]string, 0, len(g.children))
	for n := range g.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// effectiveCPU returns the group's CPU limit, inheriting from ancestors
// when unlimited (0).
func (g *Group) effectiveCPU() int64 {
	for n := g; n != nil; n = n.parent {
		if n.limits.CPUQuota > 0 {
			return n.limits.CPUQuota
		}
	}
	return 0 // fully unlimited
}

func (g *Group) effectiveMemory() int64 {
	for n := g; n != nil; n = n.parent {
		if n.limits.MemoryMiB > 0 {
			return n.limits.MemoryMiB
		}
	}
	return 0
}

// Hierarchy is a complete cgroup tree rooted at "kubepods".
type Hierarchy struct {
	root *Group
	trc  *obs.Tracer
}

// SetTracer attaches a tracer; every subsequent successful limit write
// emits a cgroup-write event (Detail = group path, Value = mCPU quota,
// Aux = MiB limit) — the D-VPA operation stream of §4.2.
func (h *Hierarchy) SetTracer(t *obs.Tracer) { h.trc = t }

// NewHierarchy creates the kubepods root with one child per QoS class,
// mirroring what kubelet builds at node start-up. rootCap is the node's
// allocatable capacity and becomes the root limit.
func NewHierarchy(rootCap res.Vector) *Hierarchy {
	root := &Group{name: "kubepods", children: map[string]*Group{}, limits: FromVector(rootCap)}
	for _, q := range []QoSClass{Guaranteed, Burstable, BestEffort} {
		root.children[q.String()] = &Group{name: q.String(), parent: root, children: map[string]*Group{}}
	}
	return &Hierarchy{root: root}
}

// Root returns the kubepods group.
func (h *Hierarchy) Root() *Group { return h.root }

// Lookup resolves a path like "kubepods/burstable/pod67f7df/cc13fc77c".
func (h *Hierarchy) Lookup(path string) (*Group, error) {
	parts := strings.Split(path, "/")
	if len(parts) == 0 || parts[0] != h.root.name {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	g := h.root
	for _, p := range parts[1:] {
		child, ok := g.children[p]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		g = child
	}
	return g, nil
}

// CreatePod adds a pod-level group under the given QoS class and returns it.
func (h *Hierarchy) CreatePod(q QoSClass, podUID string, l Limits) (*Group, error) {
	qg := h.root.children[q.String()]
	if _, exists := qg.children[podUID]; exists {
		return nil, fmt.Errorf("cgroup: pod %q already exists under %s", podUID, q)
	}
	pg := &Group{name: podUID, parent: qg, children: map[string]*Group{}, limits: l}
	if err := checkAgainstParent(pg, l); err != nil {
		return nil, err
	}
	qg.children[podUID] = pg
	return pg, nil
}

// CreateContainer adds a container-level group under a pod group.
func (h *Hierarchy) CreateContainer(pod *Group, containerID string, l Limits) (*Group, error) {
	if _, exists := pod.children[containerID]; exists {
		return nil, fmt.Errorf("cgroup: container %q already exists in %s", containerID, pod.Path())
	}
	cg := &Group{name: containerID, parent: pod, children: map[string]*Group{}, limits: l}
	if err := checkAgainstParent(cg, l); err != nil {
		return nil, err
	}
	pod.children[containerID] = cg
	return cg, nil
}

// Remove deletes a group (and its subtree) from its parent.
func (h *Hierarchy) Remove(g *Group) error {
	if g.parent == nil {
		return errors.New("cgroup: cannot remove root")
	}
	if _, ok := g.parent.children[g.name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, g.Path())
	}
	delete(g.parent.children, g.name)
	return nil
}

// SetLimits writes new limits to a single group, enforcing the kernel's
// parent-bound rule: a group's limit may never exceed its nearest bounded
// ancestor, and lowering a limit below a child's current limit fails.
// Callers performing a pod+container resize must therefore order their
// writes (see ResizePodAndContainer).
func (h *Hierarchy) SetLimits(g *Group, l Limits) error {
	if err := checkAgainstParent(g, l); err != nil {
		return err
	}
	// Children must still fit under the new limit.
	for _, c := range g.children {
		if l.CPUQuota > 0 && c.effectiveCPUWith(l, g) > l.CPUQuota {
			return fmt.Errorf("%w: child %s cpu %dm exceeds new limit %dm", ErrOrder, c.Path(), c.limits.CPUQuota, l.CPUQuota)
		}
		if l.MemoryMiB > 0 && c.effectiveMemoryWith(l, g) > l.MemoryMiB {
			return fmt.Errorf("%w: child %s memory %dMi exceeds new limit %dMi", ErrOrder, c.Path(), c.limits.MemoryMiB, l.MemoryMiB)
		}
	}
	g.limits = l
	g.writes++
	if tr := h.trc; tr.Enabled() {
		tr.Emit(obs.Ev(obs.EvCgroup).Note(g.Path()).Val(float64(l.CPUQuota)).Au(l.MemoryMiB))
	}
	return nil
}

// effectiveCPUWith is effectiveCPU but pretending ancestor `anc` had
// limits `l` (used to validate prospective writes).
func (g *Group) effectiveCPUWith(l Limits, anc *Group) int64 {
	for n := g; n != nil; n = n.parent {
		lim := n.limits
		if n == anc {
			lim = l
		}
		if lim.CPUQuota > 0 {
			return lim.CPUQuota
		}
	}
	return 0
}

func (g *Group) effectiveMemoryWith(l Limits, anc *Group) int64 {
	for n := g; n != nil; n = n.parent {
		lim := n.limits
		if n == anc {
			lim = l
		}
		if lim.MemoryMiB > 0 {
			return lim.MemoryMiB
		}
	}
	return 0
}

func checkAgainstParent(g *Group, l Limits) error {
	if l.CPUQuota < 0 || l.MemoryMiB < 0 || l.CPUShares < 0 {
		return fmt.Errorf("cgroup: negative limits %+v", l)
	}
	if g.parent == nil {
		return nil
	}
	// A zero limit inherits the parent's bound and is always allowed.
	if pcpu := g.parent.effectiveCPU(); pcpu > 0 && l.CPUQuota > pcpu {
		return fmt.Errorf("%w: cpu %dm > parent %s %dm", ErrOrder, l.CPUQuota, g.parent.Path(), pcpu)
	}
	if pmem := g.parent.effectiveMemory(); pmem > 0 && l.MemoryMiB > pmem {
		return fmt.Errorf("%w: memory %dMi > parent %s %dMi", ErrOrder, l.MemoryMiB, g.parent.Path(), pmem)
	}
	return nil
}

// ResizePodAndContainer atomically applies D-VPA's ordered two-level
// resize (Figure 5): on expansion the pod group grows first, then the
// container group; on shrink the container shrinks first, then the pod.
// Mixed cases (one dimension grows while another shrinks) are decomposed
// into a grow pass followed by a shrink pass so each pass is ordered
// correctly. The write counters record each underlying modification.
func (h *Hierarchy) ResizePodAndContainer(pod, container *Group, podL, contL Limits) error {
	if container.parent != pod {
		return fmt.Errorf("cgroup: %s is not a child of %s", container.Path(), pod.Path())
	}
	// Pass 1: grow pod-then-container using element-wise max of old/new.
	podGrow := maxLimits(pod.limits, podL)
	contGrow := maxLimits(container.limits, contL)
	if podGrow != pod.limits {
		if err := h.SetLimits(pod, podGrow); err != nil {
			return err
		}
	}
	if contGrow != container.limits {
		if err := h.SetLimits(container, contGrow); err != nil {
			return err
		}
	}
	// Pass 2: shrink container-then-pod down to the targets.
	if contL != container.limits {
		if err := h.SetLimits(container, contL); err != nil {
			return err
		}
	}
	if podL != pod.limits {
		if err := h.SetLimits(pod, podL); err != nil {
			return err
		}
	}
	return nil
}

func maxLimits(a, b Limits) Limits {
	m := func(x, y int64) int64 {
		// 0 means unlimited, which dominates any bound.
		if x == 0 || y == 0 {
			return 0
		}
		if x > y {
			return x
		}
		return y
	}
	return Limits{CPUQuota: m(a.CPUQuota, b.CPUQuota), CPUShares: maxNZ(a.CPUShares, b.CPUShares), MemoryMiB: m(a.MemoryMiB, b.MemoryMiB)}
}

func maxNZ(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Walk visits every group depth-first in sorted child order.
func (h *Hierarchy) Walk(fn func(*Group)) {
	var rec func(*Group)
	rec = func(g *Group) {
		fn(g)
		for _, name := range g.Children() {
			rec(g.children[name])
		}
	}
	rec(h.root)
}

// TotalWrites sums limit modifications across the hierarchy.
func (h *Hierarchy) TotalWrites() uint64 {
	var total uint64
	h.Walk(func(g *Group) { total += g.writes })
	return total
}

// Package k8s is a behaviour-level model of the Kubernetes machinery the
// §7.1 scaling comparison needs: an API-server pod store, kubelets that
// walk pods through a seconds-long container start into per-node cgroup
// hierarchies, and the native Vertical Pod Autoscaler, whose
// delete-and-rebuild resize interrupts the container — the pain point
// D-VPA removes. The "K8s-native" traffic baseline is sched.RoundRobin.
//
// The model reproduces the control-plane behaviour and latencies that
// matter to the paper's experiments; it does not run real containers,
// exactly like the paper's own "K8s API behaviour-level simulation of
// edge clouds" (Figure 8).
package k8s

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cgroup"
	"repro/internal/obs"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
)

// PodPhase is the pod lifecycle state.
type PodPhase int

const (
	PodPending PodPhase = iota
	PodCreating
	PodRunning
	PodTerminating
	PodTerminated
)

func (p PodPhase) String() string {
	switch p {
	case PodPending:
		return "Pending"
	case PodCreating:
		return "ContainerCreating"
	case PodRunning:
		return "Running"
	case PodTerminating:
		return "Terminating"
	case PodTerminated:
		return "Terminated"
	default:
		return fmt.Sprintf("PodPhase(%d)", int(p))
	}
}

// PodSpec is the desired state of a pod. Each pod models one container
// (the paper's services are single-container applications, §6.2).
type PodSpec struct {
	Name    string
	QoS     cgroup.QoSClass
	Request res.Vector // scheduler reservation
	Limit   res.Vector // cgroup limit
	Node    topo.NodeID
}

// Pod is a pod object tracked by the store.
type Pod struct {
	UID       string
	Spec      PodSpec
	Phase     PodPhase
	StartedAt time.Duration // virtual time the container became Running
	Restarts  int

	// cgroup bindings, populated by the kubelet when Running.
	PodGroup       *cgroup.Group
	ContainerGroup *cgroup.Group
}

// EventType enumerates store pod events.
type EventType int

const (
	EventAdded EventType = iota
	EventModified
	EventDeleted
)

func (e EventType) String() string {
	switch e {
	case EventAdded:
		return "ADDED"
	case EventModified:
		return "MODIFIED"
	case EventDeleted:
		return "DELETED"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// ErrNotFound is returned for unknown object names.
var ErrNotFound = errors.New("k8s: not found")

// Store is the API-server object store.
type Store struct {
	pods   map[string]*Pod
	uidSeq int
	trc    *obs.Tracer
}

// SetTracer attaches a tracer; every subsequent pod mutation emits a pod
// event (Detail = "EVENT/Phase pod-name", Node = bound worker).
func (s *Store) SetTracer(t *obs.Tracer) { s.trc = t }

// NewStore creates an empty object store.
func NewStore() *Store {
	return &Store{pods: map[string]*Pod{}}
}

func (s *Store) notify(t EventType, p *Pod) {
	if tr := s.trc; tr.Enabled() {
		tr.Emit(obs.Ev(obs.EvPod).Node(int(p.Spec.Node)).
			Note(t.String() + "/" + p.Phase.String() + " " + p.Spec.Name))
	}
}

// CreatePod adds a pod in Pending phase and returns it.
func (s *Store) CreatePod(spec PodSpec) (*Pod, error) {
	if spec.Name == "" {
		return nil, errors.New("k8s: pod needs a name")
	}
	if _, dup := s.pods[spec.Name]; dup {
		return nil, fmt.Errorf("k8s: pod %q already exists", spec.Name)
	}
	s.uidSeq++
	p := &Pod{UID: fmt.Sprintf("pod%06x", s.uidSeq), Spec: spec, Phase: PodPending}
	s.pods[spec.Name] = p
	s.notify(EventAdded, p)
	return p, nil
}

// GetPod returns the pod with the given name.
func (s *Store) GetPod(name string) (*Pod, error) {
	p, ok := s.pods[name]
	if !ok {
		return nil, fmt.Errorf("%w: pod %q", ErrNotFound, name)
	}
	return p, nil
}

// UpdatePod records a mutation of the pod.
func (s *Store) UpdatePod(p *Pod) { s.notify(EventModified, p) }

// DeletePod removes a pod from the store.
func (s *Store) DeletePod(name string) error {
	p, ok := s.pods[name]
	if !ok {
		return fmt.Errorf("%w: pod %q", ErrNotFound, name)
	}
	delete(s.pods, name)
	s.notify(EventDeleted, p)
	return nil
}

// NodeState tracks what a kubelet knows about its node.
type NodeState struct {
	ID          topo.NodeID
	Allocatable res.Vector
	Reserved    res.Vector // sum of requests of pods bound here
	CGroups     *cgroup.Hierarchy
}

// Free returns allocatable minus reserved.
func (n *NodeState) Free() res.Vector { return n.Allocatable.Sub(n.Reserved) }

// Kubelet materializes pods on one node: it creates the pod- and
// container-level cgroups and walks the pod through
// Pending→ContainerCreating→Running with a realistic start-up latency
// (the reason horizontal scaling is too slow for millisecond LC traffic).
type Kubelet struct {
	sim   *sim.Simulator
	store *Store
	node  *NodeState
	// StartLatency is container image pull + start time.
	StartLatency time.Duration
	// StopLatency is graceful termination time.
	StopLatency time.Duration
}

// DefaultStartLatency is the container start-up time; ~2.3 s makes the
// native VPA's delete-and-rebuild about 100× slower than D-VPA's 23 ms
// cgroup write, matching §7.1.
const DefaultStartLatency = 2300 * time.Millisecond

// DefaultStopLatency is the pod termination time.
const DefaultStopLatency = 100 * time.Millisecond

// NewKubelet creates the kubelet for one worker node.
func NewKubelet(s *sim.Simulator, store *Store, id topo.NodeID, allocatable res.Vector) *Kubelet {
	return &Kubelet{
		sim:   s,
		store: store,
		node: &NodeState{
			ID:          id,
			Allocatable: allocatable,
			CGroups:     cgroup.NewHierarchy(allocatable),
		},
		StartLatency: DefaultStartLatency,
		StopLatency:  DefaultStopLatency,
	}
}

// Node returns the kubelet's node state.
func (k *Kubelet) Node() *NodeState { return k.node }

// RunPod starts a pod bound to this node. onRunning (optional) fires when
// the container reaches Running.
func (k *Kubelet) RunPod(p *Pod, onRunning func()) error {
	if p.Spec.Node != k.node.ID {
		return fmt.Errorf("k8s: pod %s bound to node %d, kubelet on %d", p.Spec.Name, p.Spec.Node, k.node.ID)
	}
	if !k.node.Free().Fits(p.Spec.Request) {
		return fmt.Errorf("k8s: node %d lacks resources for %s (free %v, need %v)",
			k.node.ID, p.Spec.Name, k.node.Free(), p.Spec.Request)
	}
	k.node.Reserved = k.node.Reserved.Add(p.Spec.Request)
	p.Phase = PodCreating
	k.store.UpdatePod(p)
	k.sim.Schedule(k.StartLatency, func() {
		if p.Phase != PodCreating { // deleted while creating
			return
		}
		pg, err := k.node.CGroups.CreatePod(p.Spec.QoS, p.UID, cgroup.FromVector(p.Spec.Limit))
		if err != nil {
			// Roll back the reservation; surface as a terminated pod.
			k.node.Reserved = k.node.Reserved.Sub(p.Spec.Request)
			p.Phase = PodTerminated
			k.store.UpdatePod(p)
			return
		}
		cgp, err := k.node.CGroups.CreateContainer(pg, p.UID+"-c0", cgroup.FromVector(p.Spec.Limit))
		if err != nil {
			_ = k.node.CGroups.Remove(pg)
			k.node.Reserved = k.node.Reserved.Sub(p.Spec.Request)
			p.Phase = PodTerminated
			k.store.UpdatePod(p)
			return
		}
		p.PodGroup, p.ContainerGroup = pg, cgp
		p.Phase = PodRunning
		p.StartedAt = k.sim.Now()
		k.store.UpdatePod(p)
		if onRunning != nil {
			onRunning()
		}
	})
	return nil
}

// StopPod terminates a pod on this node, freeing its reservation and
// cgroups after StopLatency. onStopped (optional) fires when done.
func (k *Kubelet) StopPod(p *Pod, onStopped func()) error {
	switch p.Phase {
	case PodRunning, PodCreating:
	default:
		return fmt.Errorf("k8s: cannot stop pod %s in phase %s", p.Spec.Name, p.Phase)
	}
	prev := p.Phase
	p.Phase = PodTerminating
	k.store.UpdatePod(p)
	k.sim.Schedule(k.StopLatency, func() {
		if prev == PodRunning && p.PodGroup != nil {
			_ = k.node.CGroups.Remove(p.PodGroup)
			p.PodGroup, p.ContainerGroup = nil, nil
		}
		k.node.Reserved = k.node.Reserved.Sub(p.Spec.Request)
		p.Phase = PodTerminated
		k.store.UpdatePod(p)
		if onStopped != nil {
			onStopped()
		}
	})
	return nil
}

// NativeVPA models the upstream Vertical Pod Autoscaler plugin [11]: to
// change a pod's resources it deletes the pod and recreates it with the
// new limits, which interrupts the container for the whole delete +
// reschedule + restart window. Resize reports that downtime.
type NativeVPA struct {
	Kubelet *Kubelet
	Store   *Store
}

// Resize performs the delete-and-rebuild resize. onRunning fires when the
// replacement pod is Running. It returns the modelled downtime.
func (v *NativeVPA) Resize(p *Pod, newLimit res.Vector, onRunning func()) (time.Duration, error) {
	if p.Phase != PodRunning {
		return 0, fmt.Errorf("k8s: native VPA can only resize Running pods (%s is %s)", p.Spec.Name, p.Phase)
	}
	downtime := v.Kubelet.StopLatency + v.Kubelet.StartLatency
	oldName := p.Spec.Name
	err := v.Kubelet.StopPod(p, func() {
		spec := p.Spec
		spec.Name = oldName // reuse the name once the old object is gone
		spec.Limit = newLimit
		spec.Request = spec.Request.Min(newLimit)
		_ = v.Store.DeletePod(oldName)
		np, err := v.Store.CreatePod(spec)
		if err != nil {
			return
		}
		np.Restarts = p.Restarts + 1
		_ = v.Kubelet.RunPod(np, onRunning)
	})
	if err != nil {
		return 0, err
	}
	return downtime, nil
}

package k8s

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cgroup"
	"repro/internal/obs"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
)

func env() (*sim.Simulator, *Store) {
	s := sim.New()
	return s, NewStore()
}

func spec(name string, node topo.NodeID, req res.Vector) PodSpec {
	return PodSpec{Name: name, QoS: cgroup.Burstable, Request: req, Limit: req, Node: node}
}

func TestPodPhaseStrings(t *testing.T) {
	want := map[PodPhase]string{
		PodPending: "Pending", PodCreating: "ContainerCreating", PodRunning: "Running",
		PodTerminating: "Terminating", PodTerminated: "Terminated",
	}
	for p, w := range want {
		if p.String() != w {
			t.Fatalf("%d = %q", int(p), p.String())
		}
	}
	if EventAdded.String() != "ADDED" || EventDeleted.String() != "DELETED" || EventModified.String() != "MODIFIED" {
		t.Fatal("event type strings")
	}
}

func TestStoreCRUDAndWatch(t *testing.T) {
	s, st := env()
	ring := obs.NewRingSink(8)
	st.SetTracer(obs.NewTracer(s.Now, ring))
	p, err := st.CreatePod(spec("a", 0, res.V(100, 128, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if p.UID == "" || p.Phase != PodPending {
		t.Fatalf("pod %+v", p)
	}
	if _, err := st.CreatePod(spec("a", 0, res.V(1, 1, 0))); err == nil {
		t.Fatal("duplicate create allowed")
	}
	if _, err := st.CreatePod(PodSpec{}); err == nil {
		t.Fatal("nameless create allowed")
	}
	got, err := st.GetPod("a")
	if err != nil || got != p {
		t.Fatalf("GetPod: %v %v", got, err)
	}
	st.UpdatePod(p)
	if err := st.DeletePod("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.DeletePod("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	if _, err := st.GetPod("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("pod still visible after delete")
	}
	var events []string
	for _, e := range ring.Events() {
		if e.Kind != obs.EvPod {
			t.Fatalf("event kind %v", e.Kind)
		}
		events = append(events, e.Detail)
	}
	want := []string{"ADDED/Pending a", "MODIFIED/Pending a", "DELETED/Pending a"}
	if strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("pod events = %q, want %q", events, want)
	}
}

func TestKubeletLifecycle(t *testing.T) {
	s, st := env()
	kl := NewKubelet(s, st, 3, res.V(4000, 8192, 0))
	p, _ := st.CreatePod(spec("web", 3, res.V(1000, 1024, 0)))
	ran := false
	if err := kl.RunPod(p, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if p.Phase != PodCreating {
		t.Fatalf("phase = %v immediately after RunPod", p.Phase)
	}
	if kl.Node().Free() != res.V(3000, 7168, 0) {
		t.Fatalf("free = %v", kl.Node().Free())
	}
	s.RunUntil(s.Now() + kl.StartLatency - time.Millisecond)
	if p.Phase != PodCreating || ran {
		t.Fatal("pod running before start latency elapsed")
	}
	s.RunUntil(s.Now() + 2*time.Millisecond)
	if p.Phase != PodRunning || !ran {
		t.Fatalf("phase = %v after start latency", p.Phase)
	}
	if p.StartedAt != kl.StartLatency {
		t.Fatalf("StartedAt = %v", p.StartedAt)
	}
	if p.ContainerGroup == nil || p.PodGroup == nil {
		t.Fatal("cgroups not created")
	}
	if p.ContainerGroup.Path() != "kubepods/burstable/"+p.UID+"/"+p.UID+"-c0" {
		t.Fatalf("cgroup path = %q", p.ContainerGroup.Path())
	}

	// Stop and verify reclamation.
	if err := kl.StopPod(p, nil); err != nil {
		t.Fatal(err)
	}
	if p.Phase != PodTerminating {
		t.Fatalf("phase = %v after StopPod", p.Phase)
	}
	s.RunUntil(s.Now() + kl.StopLatency + time.Millisecond)
	if p.Phase != PodTerminated {
		t.Fatalf("phase = %v", p.Phase)
	}
	if kl.Node().Free() != res.V(4000, 8192, 0) {
		t.Fatalf("resources leaked: free = %v", kl.Node().Free())
	}
	if _, err := kl.Node().CGroups.Lookup("kubepods/burstable/" + p.UID); err == nil {
		t.Fatal("cgroup not removed")
	}
}

func TestKubeletRejectsWrongNodeAndOverflow(t *testing.T) {
	s, st := env()
	kl := NewKubelet(s, st, 1, res.V(1000, 1024, 0))
	p, _ := st.CreatePod(spec("x", 2, res.V(100, 100, 0)))
	if err := kl.RunPod(p, nil); err == nil {
		t.Fatal("wrong-node pod accepted")
	}
	p2, _ := st.CreatePod(spec("big", 1, res.V(2000, 100, 0)))
	if err := kl.RunPod(p2, nil); err == nil {
		t.Fatal("oversized pod accepted")
	}
	p3, _ := st.CreatePod(spec("ok", 1, res.V(1000, 1024, 0)))
	if err := kl.RunPod(p3, nil); err != nil {
		t.Fatal(err)
	}
	p4, _ := st.CreatePod(spec("nofit", 1, res.V(1, 1, 0)))
	if err := kl.RunPod(p4, nil); err == nil {
		t.Fatal("pod accepted with no free resources")
	}
}

func TestStopPodInvalidPhase(t *testing.T) {
	s, st := env()
	kl := NewKubelet(s, st, 1, res.V(1000, 1024, 0))
	p, _ := st.CreatePod(spec("x", 1, res.V(100, 100, 0)))
	if err := kl.StopPod(p, nil); err == nil {
		t.Fatal("stopping a Pending pod should fail")
	}
	_ = s
}

func TestNativeVPADowntimeAndRestart(t *testing.T) {
	s, st := env()
	kl := NewKubelet(s, st, 1, res.V(4000, 8192, 0))
	p, _ := st.CreatePod(spec("svc", 1, res.V(1000, 1024, 0)))
	if err := kl.RunPod(p, nil); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(s.Now() + kl.StartLatency + time.Millisecond)
	if p.Phase != PodRunning {
		t.Fatal("setup: pod not running")
	}

	vpa := &NativeVPA{Kubelet: kl, Store: st}
	rebuilt := false
	start := s.Now()
	downtime, err := vpa.Resize(p, res.V(2000, 2048, 0), func() { rebuilt = true })
	if err != nil {
		t.Fatal(err)
	}
	if downtime != kl.StopLatency+kl.StartLatency {
		t.Fatalf("downtime = %v", downtime)
	}
	// The delete-and-rebuild approach takes ~100x longer than D-VPA's 23ms.
	if downtime < 100*23*time.Millisecond {
		t.Fatalf("native VPA downtime %v should be >= 100x 23ms", downtime)
	}
	s.Run()
	if !rebuilt {
		t.Fatal("replacement pod never became Running")
	}
	np, err := st.GetPod("svc")
	if err != nil {
		t.Fatal(err)
	}
	if np == p {
		t.Fatal("pod object was not rebuilt")
	}
	if np.Spec.Limit != res.V(2000, 2048, 0) {
		t.Fatalf("new limit = %v", np.Spec.Limit)
	}
	if np.Restarts != 1 {
		t.Fatalf("restarts = %d", np.Restarts)
	}
	if got := s.Now() - start; got < downtime {
		t.Fatalf("wall downtime %v < reported %v", got, downtime)
	}

	// Resizing a non-running pod fails.
	pending, _ := st.CreatePod(spec("p2", 1, res.V(1, 1, 0)))
	if _, err := vpa.Resize(pending, res.V(2, 2, 0), nil); err == nil {
		t.Fatal("resize of pending pod allowed")
	}
}

func TestDeletedWhileCreatingDoesNotRun(t *testing.T) {
	s, st := env()
	kl := NewKubelet(s, st, 1, res.V(4000, 8192, 0))
	p, _ := st.CreatePod(spec("ghost", 1, res.V(1000, 1024, 0)))
	if err := kl.RunPod(p, func() { t.Fatal("onRunning fired for stopped pod") }); err != nil {
		t.Fatal(err)
	}
	// Stop while still creating.
	if err := kl.StopPod(p, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if p.Phase != PodTerminated {
		t.Fatalf("phase = %v", p.Phase)
	}
	if kl.Node().Free() != res.V(4000, 8192, 0) {
		t.Fatalf("leak: free = %v", kl.Node().Free())
	}
}

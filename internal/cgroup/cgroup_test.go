package cgroup

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/res"
)

func newH() *Hierarchy { return NewHierarchy(res.V(4000, 8192, 0)) }

func mustPod(t *testing.T, h *Hierarchy, q QoSClass, uid string, l Limits) *Group {
	t.Helper()
	g, err := h.CreatePod(q, uid, l)
	if err != nil {
		t.Fatalf("CreatePod(%s): %v", uid, err)
	}
	return g
}

func mustContainer(t *testing.T, h *Hierarchy, pod *Group, id string, l Limits) *Group {
	t.Helper()
	g, err := h.CreateContainer(pod, id, l)
	if err != nil {
		t.Fatalf("CreateContainer(%s): %v", id, err)
	}
	return g
}

func TestHierarchyLayout(t *testing.T) {
	h := newH()
	if h.root.name != "kubepods" {
		t.Fatalf("root = %q", h.root.name)
	}
	want := []string{"besteffort", "burstable", "guaranteed"}
	got := h.root.Children()
	if len(got) != 3 {
		t.Fatalf("children = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("children = %v, want %v", got, want)
		}
	}
}

func TestQoSClassString(t *testing.T) {
	if Guaranteed.String() != "guaranteed" || Burstable.String() != "burstable" || BestEffort.String() != "besteffort" {
		t.Fatal("QoSClass strings wrong")
	}
}

func TestCreateAndLookupPath(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "pod67f7df", FromVector(res.V(1000, 2048, 0)))
	c := mustContainer(t, h, pod, "cc13fc77c", FromVector(res.V(500, 1024, 0)))
	if c.Path() != "kubepods/burstable/pod67f7df/cc13fc77c" {
		t.Fatalf("path = %q", c.Path())
	}
	got, err := h.Lookup("kubepods/burstable/pod67f7df/cc13fc77c")
	if err != nil || got != c {
		t.Fatalf("Lookup: %v %v", got, err)
	}
	if _, err := h.Lookup("kubepods/burstable/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing lookup err = %v", err)
	}
	if _, err := h.Lookup("wrongroot"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrong root err = %v", err)
	}
}

func TestDuplicateCreateFails(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", Limits{})
	if _, err := h.CreatePod(Burstable, "p", Limits{}); err == nil {
		t.Fatal("duplicate pod allowed")
	}
	mustContainer(t, h, pod, "c", Limits{})
	if _, err := h.CreateContainer(pod, "c", Limits{}); err == nil {
		t.Fatal("duplicate container allowed")
	}
}

func TestCreateExceedingParentFails(t *testing.T) {
	h := newH() // root 4000m / 8192Mi
	if _, err := h.CreatePod(Burstable, "big", FromVector(res.V(5000, 1024, 0))); !errors.Is(err, ErrOrder) {
		t.Fatalf("over-CPU pod err = %v", err)
	}
	if _, err := h.CreatePod(Burstable, "bigmem", FromVector(res.V(1000, 9000, 0))); !errors.Is(err, ErrOrder) {
		t.Fatalf("over-memory pod err = %v", err)
	}
	pod := mustPod(t, h, Burstable, "p", FromVector(res.V(1000, 2048, 0)))
	if _, err := h.CreateContainer(pod, "c", FromVector(res.V(2000, 1024, 0))); !errors.Is(err, ErrOrder) {
		t.Fatalf("container exceeding pod err = %v", err)
	}
}

func TestNegativeLimitsRejected(t *testing.T) {
	h := newH()
	if _, err := h.CreatePod(Burstable, "p", Limits{CPUQuota: -1}); err == nil {
		t.Fatal("negative limits accepted")
	}
}

func TestZeroMeansInherit(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, BestEffort, "p", Limits{}) // unlimited
	c := mustContainer(t, h, pod, "c", Limits{})
	if c.effectiveCPU() != 4000 {
		t.Fatalf("effective CPU = %d, want inherited 4000", c.effectiveCPU())
	}
	if c.effectiveMemory() != 8192 {
		t.Fatalf("effective memory = %d, want inherited 8192", c.effectiveMemory())
	}
}

func TestSetLimitsWrongOrderExpand(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", FromVector(res.V(1000, 2048, 0)))
	c := mustContainer(t, h, pod, "c", FromVector(res.V(1000, 2048, 0)))
	// Expanding the container before the pod must fail (kernel rule).
	if err := h.SetLimits(c, FromVector(res.V(2000, 2048, 0))); !errors.Is(err, ErrOrder) {
		t.Fatalf("expand container first err = %v", err)
	}
	// Correct order: pod first, then container.
	if err := h.SetLimits(pod, FromVector(res.V(2000, 2048, 0))); err != nil {
		t.Fatal(err)
	}
	if err := h.SetLimits(c, FromVector(res.V(2000, 2048, 0))); err != nil {
		t.Fatal(err)
	}
}

func TestSetLimitsWrongOrderShrink(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", FromVector(res.V(2000, 4096, 0)))
	c := mustContainer(t, h, pod, "c", FromVector(res.V(2000, 4096, 0)))
	// Shrinking the pod below its container must fail.
	if err := h.SetLimits(pod, FromVector(res.V(1000, 4096, 0))); !errors.Is(err, ErrOrder) {
		t.Fatalf("shrink pod first err = %v", err)
	}
	// Correct order: container first, then pod.
	if err := h.SetLimits(c, FromVector(res.V(1000, 4096, 0))); err != nil {
		t.Fatal(err)
	}
	if err := h.SetLimits(pod, FromVector(res.V(1000, 4096, 0))); err != nil {
		t.Fatal(err)
	}
}

func TestResizePodAndContainerExpand(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", FromVector(res.V(1000, 2048, 0)))
	c := mustContainer(t, h, pod, "c", FromVector(res.V(1000, 2048, 0)))
	if err := h.ResizePodAndContainer(pod, c, FromVector(res.V(3000, 4096, 0)), FromVector(res.V(3000, 4096, 0))); err != nil {
		t.Fatal(err)
	}
	if pod.Limits().CPUQuota != 3000 || c.Limits().CPUQuota != 3000 {
		t.Fatalf("limits after expand: pod=%+v c=%+v", pod.Limits(), c.Limits())
	}
}

func TestResizePodAndContainerShrink(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", FromVector(res.V(3000, 4096, 0)))
	c := mustContainer(t, h, pod, "c", FromVector(res.V(3000, 4096, 0)))
	if err := h.ResizePodAndContainer(pod, c, FromVector(res.V(500, 1024, 0)), FromVector(res.V(500, 1024, 0))); err != nil {
		t.Fatal(err)
	}
	if pod.Limits().MemoryMiB != 1024 || c.Limits().MemoryMiB != 1024 {
		t.Fatalf("limits after shrink: pod=%+v c=%+v", pod.Limits(), c.Limits())
	}
}

func TestResizeMixedDimensions(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", FromVector(res.V(2000, 2048, 0)))
	c := mustContainer(t, h, pod, "c", FromVector(res.V(2000, 2048, 0)))
	// CPU grows while memory shrinks: must still succeed via two passes.
	target := FromVector(res.V(3000, 1024, 0))
	if err := h.ResizePodAndContainer(pod, c, target, target); err != nil {
		t.Fatal(err)
	}
	if c.Limits().CPUQuota != 3000 || c.Limits().MemoryMiB != 1024 {
		t.Fatalf("mixed resize result %+v", c.Limits())
	}
}

func TestResizeRejectsForeignContainer(t *testing.T) {
	h := newH()
	p1 := mustPod(t, h, Burstable, "p1", Limits{})
	p2 := mustPod(t, h, Burstable, "p2", Limits{})
	c2 := mustContainer(t, h, p2, "c", Limits{})
	if err := h.ResizePodAndContainer(p1, c2, Limits{}, Limits{}); err == nil {
		t.Fatal("resize with mismatched pod/container allowed")
	}
}

func TestResizeBeyondRootFails(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", FromVector(res.V(1000, 1024, 0)))
	c := mustContainer(t, h, pod, "c", FromVector(res.V(1000, 1024, 0)))
	err := h.ResizePodAndContainer(pod, c, FromVector(res.V(9000, 1024, 0)), FromVector(res.V(9000, 1024, 0)))
	if !errors.Is(err, ErrOrder) {
		t.Fatalf("resize beyond node capacity err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", Limits{})
	if err := h.Remove(pod); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Lookup("kubepods/burstable/p"); !errors.Is(err, ErrNotFound) {
		t.Fatal("pod still present after Remove")
	}
	if err := h.Remove(pod); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
	if err := h.Remove(h.root); err == nil {
		t.Fatal("removing root allowed")
	}
}

func TestWriteAccounting(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Burstable, "p", FromVector(res.V(1000, 2048, 0)))
	c := mustContainer(t, h, pod, "c", FromVector(res.V(500, 1024, 0)))
	total := func() (n uint64) {
		h.Walk(func(g *Group) { n += g.writes })
		return n
	}
	if total() != 0 {
		t.Fatalf("initial writes = %d", total())
	}
	if err := h.SetLimits(c, FromVector(res.V(600, 1024, 0))); err != nil {
		t.Fatal(err)
	}
	if c.writes != 1 || total() != 1 {
		t.Fatalf("writes = %d/%d", c.writes, total())
	}
}

func TestWalkVisitsAll(t *testing.T) {
	h := newH()
	pod := mustPod(t, h, Guaranteed, "p", Limits{})
	mustContainer(t, h, pod, "c1", Limits{})
	mustContainer(t, h, pod, "c2", Limits{})
	var paths []string
	h.Walk(func(g *Group) { paths = append(paths, g.Path()) })
	// root + 3 qos + 1 pod + 2 containers
	if len(paths) != 7 {
		t.Fatalf("walk visited %d groups: %v", len(paths), paths)
	}
}

func TestFromVectorRoundTrip(t *testing.T) {
	v := res.V(1500, 3072, 0)
	l := FromVector(v)
	if l.CPUShares != 1536 {
		t.Fatalf("shares = %d, want 1536", l.CPUShares)
	}
	if got := res.V(l.CPUQuota, l.MemoryMiB, 0); got != v {
		t.Fatalf("round trip = %v, want %v", got, v)
	}
}

// Property: after any sequence of successful ResizePodAndContainer calls,
// the invariant child<=parent holds everywhere, and the final limits equal
// the last requested values.
func TestQuickResizeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHierarchy(res.V(8000, 16384, 0))
		pod, err := h.CreatePod(Burstable, "p", FromVector(res.V(1000, 1024, 0)))
		if err != nil {
			return false
		}
		c, err := h.CreateContainer(pod, "c", FromVector(res.V(1000, 1024, 0)))
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			cpu := int64(rng.Intn(8000) + 1)
			mem := int64(rng.Intn(16384) + 1)
			l := FromVector(res.V(cpu, mem, 0))
			if err := h.ResizePodAndContainer(pod, c, l, l); err != nil {
				return false
			}
			if pod.Limits().CPUQuota != cpu || c.Limits().CPUQuota != cpu {
				return false
			}
			// Invariant: container effective limits within pod's.
			if c.effectiveCPU() > pod.effectiveCPU() || c.effectiveMemory() > pod.effectiveMemory() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a direct out-of-order write never corrupts state — on error
// the limits are unchanged.
func TestQuickFailedWriteLeavesStateIntact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHierarchy(res.V(4000, 8192, 0))
		pod, _ := h.CreatePod(Burstable, "p", FromVector(res.V(2000, 4096, 0)))
		c, _ := h.CreateContainer(pod, "c", FromVector(res.V(2000, 4096, 0)))
		before := c.Limits()
		beforePod := pod.Limits()
		// Illegal: container beyond pod.
		bad := FromVector(res.V(int64(2001+rng.Intn(2000)), 4096, 0))
		if err := h.SetLimits(c, bad); err == nil {
			return false
		}
		return c.Limits() == before && pod.Limits() == beforePod
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

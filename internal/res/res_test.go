package res

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{CPU: "cpu", Memory: "memory", Bandwidth: "bandwidth"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestGetSet(t *testing.T) {
	v := V(100, 200, 300)
	if v.Get(CPU) != 100 || v.Get(Memory) != 200 || v.Get(Bandwidth) != 300 {
		t.Fatalf("Get mismatch: %v", v)
	}
}

func TestAddSub(t *testing.T) {
	a, b := V(1, 2, 3), V(10, 20, 30)
	if got := a.Add(b); got != V(11, 22, 33) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != V(9, 18, 27) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestFits(t *testing.T) {
	node := V(4000, 8192, 1000)
	if !node.Fits(V(4000, 8192, 1000)) {
		t.Error("exact fit should pass")
	}
	if !node.Fits(Vector{}) {
		t.Error("zero demand should fit")
	}
	if node.Fits(V(4001, 0, 0)) {
		t.Error("CPU overflow should fail")
	}
	if node.Fits(V(0, 9000, 0)) {
		t.Error("memory overflow should fail")
	}
}

func TestScale(t *testing.T) {
	v := V(1000, 2048, 100)
	if got := v.Scale(1, 2); got != V(500, 1024, 50) {
		t.Fatalf("Scale(1/2) = %v", got)
	}
	if got := v.Scale(3, 1); got != V(3000, 6144, 300) {
		t.Fatalf("Scale(3) = %v", got)
	}
}

func TestScaleFloatRounds(t *testing.T) {
	v := V(3, 3, 3)
	if got := v.ScaleFloat(0.5); got != V(2, 2, 2) {
		t.Fatalf("ScaleFloat(0.5) = %v, want rounding to nearest", got)
	}
	if got := V(-3, 0, 0).ScaleFloat(0.5); got.MilliCPU != -2 {
		t.Fatalf("negative rounding = %v", got)
	}
}

func TestScalePanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(_,0) did not panic")
		}
	}()
	V(1, 1, 1).Scale(1, 0)
}

func TestMinMaxClamp(t *testing.T) {
	a, b := V(1, 20, 3), V(10, 2, 30)
	if got := a.Max(b); got != V(10, 20, 30) {
		t.Fatalf("Max = %v", got)
	}
	if got := a.Min(b); got != V(1, 2, 3) {
		t.Fatalf("Min = %v", got)
	}
}

func TestDominantShare(t *testing.T) {
	capV := V(1000, 1000, 1000)
	if got := V(500, 250, 100).DominantShare(capV); got != 0.5 {
		t.Fatalf("DominantShare = %v, want 0.5", got)
	}
	if got := (Vector{}).DominantShare(capV); got != 0 {
		t.Fatalf("zero usage share = %v", got)
	}
	// zero-capacity dimensions are ignored
	if got := V(500, 9999, 0).DominantShare(V(1000, 0, 0)); got != 0.5 {
		t.Fatalf("zero-cap dimension not ignored: %v", got)
	}
}

func TestCapacityCount(t *testing.T) {
	node := V(4000, 8192, 0)
	demand := V(500, 1024, 0)
	if got := node.CapacityCount(demand); got != 8 {
		t.Fatalf("CapacityCount = %d, want 8", got)
	}
	// memory is the bottleneck
	if got := V(4000, 1024, 0).CapacityCount(demand); got != 1 {
		t.Fatalf("CapacityCount = %d, want 1", got)
	}
	// zero demand is unbounded-ish
	if got := node.CapacityCount(Vector{}); got < 1<<30 {
		t.Fatalf("zero-demand capacity = %d", got)
	}
	// negative availability counts as zero
	if got := V(-100, 8192, 0).CapacityCount(demand); got != 0 {
		t.Fatalf("negative availability capacity = %d, want 0", got)
	}
}

func TestNonnegativeIsZero(t *testing.T) {
	if !(Vector{}).IsZero() {
		t.Error("zero vector should be IsZero")
	}
	if V(1, 0, 0).IsZero() {
		t.Error("nonzero vector reported IsZero")
	}
	if !V(0, 0, 0).Nonnegative() || V(-1, 0, 0).Nonnegative() {
		t.Error("Nonnegative misbehaves")
	}
}

func TestString(t *testing.T) {
	got := V(2000, 4096, 100).String()
	want := "cpu=2000m mem=4096Mi bw=100Mbps"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func randVec(r *rand.Rand) Vector {
	return V(int64(r.Intn(10000)), int64(r.Intn(10000)), int64(r.Intn(10000)))
}

// Property: Add is commutative and associative; Sub inverts Add.
func TestQuickAddSubAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVec(r), randVec(r), randVec(r)
		if a.Add(b) != b.Add(a) {
			return false
		}
		if a.Add(b).Add(c) != a.Add(b.Add(c)) {
			return false
		}
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Fits(w) implies Sub(w).Nonnegative() and vice versa.
func TestQuickFitsSubEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, w := randVec(r), randVec(r)
		return v.Fits(w) == v.Sub(w).Nonnegative()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CapacityCount * demand always fits; (count+1)*demand never does
// (when demand has at least one positive dimension and count is bounded).
func TestQuickCapacityCountTight(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		node := randVec(r)
		demand := V(int64(r.Intn(500)+1), int64(r.Intn(500)+1), int64(r.Intn(500)+1))
		n := node.CapacityCount(demand)
		if !node.Fits(demand.Scale(n, 1)) {
			return false
		}
		return !node.Fits(demand.Scale(n+1, 1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Min/Max are lattice ops (idempotent, commutative, absorbing).
func TestQuickMinMaxLattice(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVec(r), randVec(r)
		if a.Max(a) != a || a.Min(a) != a {
			return false
		}
		if a.Max(b) != b.Max(a) || a.Min(b) != b.Min(a) {
			return false
		}
		return a.Max(a.Min(b)) == a && a.Min(a.Max(b)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

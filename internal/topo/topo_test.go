package topo

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/res"
)

func small() *Topology {
	b := NewBuilder()
	b.AddCluster(31.0, 121.0, res.V(8000, 16384, 1000), []res.Vector{
		res.V(4000, 8192, 500), res.V(4000, 8192, 500),
	})
	b.AddCluster(32.0, 122.0, res.V(8000, 16384, 1000), []res.Vector{
		res.V(4000, 8192, 500),
	})
	return b.Build()
}

func TestBuilderStructure(t *testing.T) {
	tp := small()
	if len(tp.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(tp.Clusters))
	}
	if len(tp.Nodes) != 5 {
		t.Fatalf("nodes = %d", len(tp.Nodes))
	}
	c0 := tp.Cluster(0)
	if tp.Node(c0.Master).Role != Master {
		t.Fatal("cluster 0 master has wrong role")
	}
	if len(c0.Workers) != 2 {
		t.Fatalf("cluster 0 workers = %d", len(c0.Workers))
	}
	for _, w := range c0.Workers {
		if tp.Node(w).Role != Worker || tp.Node(w).Cluster != 0 {
			t.Fatal("worker metadata wrong")
		}
	}
}

func TestRoleString(t *testing.T) {
	if Master.String() != "master" || Worker.String() != "worker" {
		t.Fatal("Role.String wrong")
	}
}

func TestRTTModel(t *testing.T) {
	tp := small()
	if tp.RTT(0, 0) != 0 {
		t.Fatal("self RTT should be 0")
	}
	if tp.RTT(0, 1) != tp.LANRTT {
		t.Fatalf("intra-cluster RTT = %v, want LAN %v", tp.RTT(0, 1), tp.LANRTT)
	}
	wan := tp.RTT(0, 3) // cluster 0 master -> cluster 1 master
	if wan <= tp.WANBaseRTT {
		t.Fatalf("WAN RTT %v should exceed base %v", wan, tp.WANBaseRTT)
	}
	if tp.RTT(0, 3) != tp.RTT(3, 0) {
		t.Fatal("RTT must be symmetric")
	}
}

func TestClusterRTTMonotoneInDistance(t *testing.T) {
	b := NewBuilder()
	var caps []res.Vector
	caps = append(caps, res.V(4000, 8192, 500))
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), caps)
	b.AddCluster(30.5, 120, res.V(8000, 16384, 1000), caps) // ~55km
	b.AddCluster(35, 120, res.V(8000, 16384, 1000), caps)   // ~555km
	tp := b.Build()
	near := tp.ClusterRTT(0, 1)
	far := tp.ClusterRTT(0, 2)
	if near >= far {
		t.Fatalf("RTT not monotone: near=%v far=%v", near, far)
	}
	// The paper's production dataset reports >97ms edge->central RTT;
	// the default model should produce tens-of-ms RTTs at ~500km.
	if far < 20*time.Millisecond || far > 200*time.Millisecond {
		t.Fatalf("far RTT %v outside plausible envelope", far)
	}
}

func TestLinkBandwidth(t *testing.T) {
	tp := small()
	if tp.LinkBandwidth(0, 1) != tp.LANBandwidthMbps {
		t.Fatal("LAN bandwidth wrong")
	}
	if tp.LinkBandwidth(0, 3) != tp.WANBandwidthMbps {
		t.Fatal("WAN bandwidth wrong")
	}
	if tp.LinkBandwidth(2, 2) < tp.LANBandwidthMbps {
		t.Fatal("self bandwidth should be effectively unlimited")
	}
}

func TestCentralSelection(t *testing.T) {
	// Three clusters in a line: the middle one must be chosen central.
	b := NewBuilder()
	caps := []res.Vector{res.V(4000, 8192, 500)}
	b.AddCluster(30, 118, res.V(8000, 16384, 1000), caps)
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), caps)
	b.AddCluster(30, 122, res.V(8000, 16384, 1000), caps)
	tp := b.Build()
	if tp.CentralCluster().ID != 1 {
		t.Fatalf("central = %d, want middle cluster 1", tp.CentralCluster().ID)
	}
}

func TestMarkCentralOverrides(t *testing.T) {
	b := NewBuilder()
	caps := []res.Vector{res.V(4000, 8192, 500)}
	b.AddCluster(30, 118, res.V(8000, 16384, 1000), caps)
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), caps)
	b.MarkCentral(0)
	tp := b.Build()
	if tp.CentralCluster().ID != 0 {
		t.Fatal("MarkCentral ignored")
	}
}

func TestNeighborClusters(t *testing.T) {
	b := NewBuilder()
	caps := []res.Vector{res.V(4000, 8192, 500)}
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), caps)
	b.AddCluster(30.5, 120, res.V(8000, 16384, 1000), caps) // ~55km away
	b.AddCluster(40, 120, res.V(8000, 16384, 1000), caps)   // ~1100km away
	tp := b.Build()
	for c, want := range [][]ClusterID{{1}, {0}, {}} {
		got := tp.Neighbors(ClusterID(c))
		if len(got) != len(want) || (len(want) > 0 && got[0] != want[0]) {
			t.Fatalf("Neighbors(%d) = %v, want %v", c, got, want)
		}
	}
}

// Build's distance table and neighbour lists are the geography every
// scheduler reads: each entry must be bit-equal to haversineKm for its
// ordered pair (0 on the diagonal), and each list must equal a
// brute-force filter over the table. The JSON round trip carries a
// central cluster, so it covers the Build path that skips the central
// choice.
func TestGeographyTablesMatchBruteForce(t *testing.T) {
	var rt strings.Builder
	if err := DualSpace(10, 3).WriteJSON(&rt); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(strings.NewReader(rt.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tp   *Topology
	}{
		{"testbed", PhysicalTestbed()},
		{"dualspace", DualSpace(100, 1)},
		{"generate", Generate(DefaultGenConfig(24), rand.New(rand.NewSource(5)))},
		{"json", fromJSON},
	} {
		tp := tc.tp
		for _, a := range tp.Clusters {
			var want []ClusterID
			for _, b := range tp.Clusters {
				d := 0.0
				if a.ID != b.ID {
					d = haversineKm(a.Lat, a.Lon, b.Lat, b.Lon)
					if d <= GeoRadiusKm {
						want = append(want, b.ID)
					}
				}
				if got := tp.DistanceKm(a.ID, b.ID); math.Float64bits(got) != math.Float64bits(d) {
					t.Fatalf("%s: DistanceKm(%d, %d) = %v, haversineKm = %v", tc.name, a.ID, b.ID, got, d)
				}
			}
			if got := tp.Neighbors(a.ID); !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%d) = %v, brute force %v", tc.name, a.ID, got, want)
			}
		}
	}
}

func TestTotalCapacityCountsWorkersOnly(t *testing.T) {
	tp := small()
	want := res.V(4000*3, 8192*3, 500*3)
	if got := tp.TotalCapacity(); got != want {
		t.Fatalf("TotalCapacity = %v, want %v", got, want)
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// Shanghai (31.2, 121.5) to Nanjing (32.1, 118.8) is ~270km.
	d := haversineKm(31.2, 121.5, 32.1, 118.8)
	if d < 230 || d > 310 {
		t.Fatalf("Shanghai-Nanjing distance = %.0f km, want ~270", d)
	}
	if haversineKm(10, 20, 10, 20) != 0 {
		t.Fatal("identical points should be 0 km apart")
	}
}

func TestPhysicalTestbed(t *testing.T) {
	tp := PhysicalTestbed()
	if len(tp.Clusters) != 4 {
		t.Fatalf("clusters = %d, want 4", len(tp.Clusters))
	}
	if len(tp.Nodes) != 4*5 {
		t.Fatalf("nodes = %d, want 20", len(tp.Nodes))
	}
	for _, c := range tp.Clusters {
		if len(c.Workers) != 4 {
			t.Fatalf("cluster %d workers = %d, want 4", c.ID, len(c.Workers))
		}
		if tp.Node(c.Master).Capacity != res.V(8000, 16384, 1000) {
			t.Fatal("master capacity wrong")
		}
	}
}

func TestDualSpaceScale(t *testing.T) {
	tp := DualSpace(100, 42)
	if len(tp.Clusters) != 104 {
		t.Fatalf("clusters = %d, want 104", len(tp.Clusters))
	}
	workers := 0
	for _, n := range tp.Nodes {
		if n.Role == Worker {
			workers++
		}
	}
	// 16 physical + 100 virtual clusters of 3-20 workers each.
	if workers < 16+100*3 || workers > 16+100*20 {
		t.Fatalf("workers = %d outside [316, 2016]", workers)
	}
}

func TestDualSpaceDeterministic(t *testing.T) {
	a := DualSpace(20, 7)
	b := DualSpace(20, 7)
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("same seed produced different node counts")
	}
	for i := range a.Nodes {
		if a.Nodes[i].Capacity != b.Nodes[i].Capacity {
			t.Fatal("same seed produced different capacities")
		}
	}
	c := DualSpace(20, 8)
	same := len(a.Nodes) == len(c.Nodes)
	if same {
		identical := true
		for i := range a.Nodes {
			if a.Nodes[i].Capacity != c.Nodes[i].Capacity {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical topologies")
		}
	}
}

func TestGenerateHeterogeneity(t *testing.T) {
	cfg := DefaultGenConfig(30)
	tp := Generate(cfg, rand.New(rand.NewSource(1)))
	sizes := map[int]bool{}
	caps := map[int64]bool{}
	for _, c := range tp.Clusters {
		sizes[len(c.Workers)] = true
		for _, w := range c.Workers {
			caps[tp.Node(w).Capacity.MilliCPU] = true
			cv := tp.Node(w).Capacity
			if cv.MilliCPU < cfg.WorkerCapMin.MilliCPU || cv.MilliCPU > cfg.WorkerCapMax.MilliCPU {
				t.Fatalf("worker CPU %d outside [%d,%d]", cv.MilliCPU, cfg.WorkerCapMin.MilliCPU, cfg.WorkerCapMax.MilliCPU)
			}
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("cluster sizes not heterogeneous: %v", sizes)
	}
	if len(caps) < 10 {
		t.Fatalf("worker capacities not heterogeneous: %d distinct", len(caps))
	}
}

func TestGeneratePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no clusters": func() { Generate(GenConfig{Clusters: 0, MinWorkers: 1, MaxWorkers: 1}, rand.New(rand.NewSource(1))) },
		"bad workers": func() { Generate(GenConfig{Clusters: 1, MinWorkers: 5, MaxWorkers: 2}, rand.New(rand.NewSource(1))) },
		"empty build": func() { NewBuilder().Build() },
		"bad node":    func() { small().Node(99) },
		"bad cluster": func() { small().Cluster(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: RTT is a symmetric, nonnegative function with RTT(a,a)=0, and
// intra-cluster pairs always have RTT <= inter-cluster pairs.
func TestQuickRTTMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := Generate(DefaultGenConfig(5), rng)
		n := len(tp.Nodes)
		for trial := 0; trial < 20; trial++ {
			a := NodeID(rng.Intn(n))
			b := NodeID(rng.Intn(n))
			if tp.RTT(a, b) != tp.RTT(b, a) {
				return false
			}
			if tp.RTT(a, a) != 0 {
				return false
			}
			if tp.RTT(a, b) < 0 {
				return false
			}
			if a != b && tp.Node(a).Cluster != tp.Node(b).Cluster && tp.RTT(a, b) < tp.LANRTT {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

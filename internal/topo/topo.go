// Package topo models the distributed edge-cloud topology of §5.1.1:
// a set of edge-cloud clusters B, each with one master node (the edge
// access point, eAP) and several worker nodes. Nodes inside a cluster are
// connected by LAN; clusters are connected by WAN. Geographic coordinates
// drive the WAN round-trip-time model, replacing the Linux tc emulation
// the paper uses on its testbed.
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/res"
)

// Role distinguishes master (eAP, controller) from worker nodes.
type Role int

const (
	Master Role = iota
	Worker
)

func (r Role) String() string {
	if r == Master {
		return "master"
	}
	return "worker"
}

// NodeID identifies a node globally. IDs are dense, starting at 0, in
// creation order, so they can index slices.
type NodeID int

// ClusterID identifies an edge-cloud cluster.
type ClusterID int

// Node is one edge-cloud machine.
type Node struct {
	ID       NodeID
	Cluster  ClusterID
	Role     Role
	Capacity res.Vector // total hardware resources
}

// Cluster is one edge-cloud cluster: a master plus workers on a LAN.
type Cluster struct {
	ID      ClusterID
	Master  NodeID
	Workers []NodeID
	// Lat/Lon locate the cluster for the WAN RTT model (degrees).
	Lat, Lon float64
	// Central marks the cluster chosen for centralized BE scheduling
	// (geographically central and resource-rich, per footnote 2).
	Central bool
}

// Topology is the full edge-cloud system graph.
type Topology struct {
	Nodes    []*Node
	Clusters []*Cluster

	// LANRTT is the intra-cluster round-trip time.
	LANRTT time.Duration
	// LANBandwidthMbps caps intra-cluster transfers.
	LANBandwidthMbps int64
	// WANBandwidthMbps caps inter-cluster transfers.
	WANBandwidthMbps int64
	// KmPerMsRTT converts geographic distance to WAN RTT: every this many
	// km adds 1 ms of round-trip time on top of WANBaseRTT.
	KmPerMsRTT float64
	// WANBaseRTT is the floor RTT between distinct clusters.
	WANBaseRTT time.Duration

	// net is the lazily-created WAN fault overlay (see net.go); nil on a
	// pristine topology, keeping healthy runs bit-identical to builds
	// that predate the overlay.
	net *NetOverlay

	// distKm[a][b] is the great-circle distance between clusters a and
	// b, and nbrs[c] the clusters within GeoRadiusKm of c in ascending
	// ID order. Build fills both once: cluster positions never change
	// after it.
	distKm [][]float64
	nbrs   [][]ClusterID
}

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(t.Nodes) {
		panic(fmt.Sprintf("topo: node %d out of range [0,%d)", id, len(t.Nodes)))
	}
	return t.Nodes[id]
}

// Cluster returns the cluster with the given ID.
func (t *Topology) Cluster(id ClusterID) *Cluster {
	if int(id) < 0 || int(id) >= len(t.Clusters) {
		panic(fmt.Sprintf("topo: cluster %d out of range [0,%d)", id, len(t.Clusters)))
	}
	return t.Clusters[id]
}

// CentralCluster returns the cluster marked Central, or the first cluster
// if none is marked.
func (t *Topology) CentralCluster() *Cluster {
	for _, c := range t.Clusters {
		if c.Central {
			return c
		}
	}
	return t.Clusters[0]
}

// DistanceKm returns the great-circle distance between two clusters.
func (t *Topology) DistanceKm(a, b ClusterID) float64 { return t.distKm[a][b] }

// RTT returns the round-trip time between two nodes: LANRTT within a
// cluster (zero to self), or the distance-derived WAN RTT across clusters.
func (t *Topology) RTT(a, b NodeID) time.Duration {
	if a == b {
		return 0
	}
	na, nb := t.Node(a), t.Node(b)
	if na.Cluster == nb.Cluster {
		return t.LANRTT
	}
	return t.ClusterRTT(na.Cluster, nb.Cluster)
}

// ClusterRTT returns the WAN RTT between two clusters (LANRTT if
// equal), after any fault-overlay adjustment: a severed link reads as
// PartitionRTT, an RTT storm multiplies the healthy figure.
func (t *Topology) ClusterRTT(a, b ClusterID) time.Duration {
	if a == b {
		return t.LANRTT
	}
	km := t.DistanceKm(a, b)
	extra := time.Duration(float64(km/t.KmPerMsRTT*float64(time.Millisecond)) + 0.5)
	return t.wanAdjust(a, b, t.WANBaseRTT+extra)
}

// LinkBandwidth returns the transfer capacity between two nodes in Mbps.
func (t *Topology) LinkBandwidth(a, b NodeID) int64 {
	if a == b {
		return math.MaxInt64 / 4
	}
	if t.Node(a).Cluster == t.Node(b).Cluster {
		return t.LANBandwidthMbps
	}
	return t.WANBandwidthMbps
}

// GeoRadiusKm is the geo neighbourhood of footnote 4: LC requests may
// only be dispatched to local clusters or to clusters within this
// distance (500 km in the production dataset).
const GeoRadiusKm float64 = 500

// Neighbors returns the clusters within GeoRadiusKm of c (excluding c)
// in ascending ID order: the geo neighbourhood of footnote 4. The slice
// is shared by every caller and must not be modified.
func (t *Topology) Neighbors(c ClusterID) []ClusterID { return t.nbrs[c] }

// WorkersOf returns the worker node IDs of a cluster.
func (t *Topology) WorkersOf(c ClusterID) []NodeID { return t.Cluster(c).Workers }

// TotalCapacity sums the capacity of every worker node in the system.
func (t *Topology) TotalCapacity() res.Vector {
	var total res.Vector
	for _, n := range t.Nodes {
		if n.Role == Worker {
			total = total.Add(n.Capacity)
		}
	}
	return total
}

func haversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371.0
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := float64(math.Sin(dLat/2)*math.Sin(dLat/2)) +
		float64(math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2))
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Builder incrementally constructs a Topology.
type Builder struct {
	t *Topology
}

// NewBuilder returns a Builder with the default latency/bandwidth model:
// 1 ms LAN RTT, 1 Gbps LAN, 200 Mbps WAN, a 40 ms WAN base RTT and 1 ms
// of RTT per 20 km. The paper's production dataset reports edge→central
// RTTs exceeding 97 ms; under this model clusters ~1000 km apart reach
// that figure, and the ~300 km testbed spacing costs ~55 ms — enough
// that traffic scheduling locality genuinely matters, as in §5.2.
func NewBuilder() *Builder {
	return &Builder{t: &Topology{
		LANRTT:           1 * time.Millisecond,
		LANBandwidthMbps: 1000,
		WANBandwidthMbps: 200,
		KmPerMsRTT:       20,
		WANBaseRTT:       40 * time.Millisecond,
	}}
}

// AddCluster creates a cluster with one master and the given worker
// capacities, located at (lat, lon). It returns the new cluster's ID.
func (b *Builder) AddCluster(lat, lon float64, masterCap res.Vector, workerCaps []res.Vector) ClusterID {
	cid := ClusterID(len(b.t.Clusters))
	c := &Cluster{ID: cid, Lat: lat, Lon: lon}
	m := &Node{ID: NodeID(len(b.t.Nodes)), Cluster: cid, Role: Master, Capacity: masterCap}
	b.t.Nodes = append(b.t.Nodes, m)
	c.Master = m.ID
	for _, wc := range workerCaps {
		w := &Node{ID: NodeID(len(b.t.Nodes)), Cluster: cid, Role: Worker, Capacity: wc}
		b.t.Nodes = append(b.t.Nodes, w)
		c.Workers = append(c.Workers, w.ID)
	}
	b.t.Clusters = append(b.t.Clusters, c)
	return cid
}

// MarkCentral designates the BE-scheduling cluster.
func (b *Builder) MarkCentral(c ClusterID) {
	for _, cl := range b.t.Clusters {
		cl.Central = false
	}
	b.t.Cluster(c).Central = true
}

// Build finalizes the topology: it computes every cluster-pair distance
// and every footnote-4 neighbourhood once. If no cluster is marked
// central, the one minimizing the sum of distances to all others (ties
// broken toward more total capacity) is chosen, per footnote 2 of the
// paper.
func (b *Builder) Build() *Topology {
	t := b.t
	n := len(t.Clusters)
	if n == 0 {
		panic("topo: Build with no clusters")
	}
	// Count the neighbours while filling the table, so every neighbour
	// list is a capped window of one exact-size backing array.
	t.distKm = make([][]float64, n)
	near := 0
	for i, c := range t.Clusters {
		row := make([]float64, n)
		for j, o := range t.Clusters {
			if j == i {
				continue
			}
			row[j] = haversineKm(c.Lat, c.Lon, o.Lat, o.Lon)
			if row[j] <= GeoRadiusKm {
				near++
			}
		}
		t.distKm[i] = row
	}
	t.nbrs = make([][]ClusterID, n)
	backing := make([]ClusterID, 0, near)
	for i, row := range t.distKm {
		start := len(backing)
		for j, d := range row {
			if j != i && d <= GeoRadiusKm {
				backing = append(backing, t.Clusters[j].ID)
			}
		}
		t.nbrs[i] = backing[start:len(backing):len(backing)]
	}
	hasCentral := false
	for _, c := range t.Clusters {
		if c.Central {
			hasCentral = true
		}
	}
	if !hasCentral {
		bestIdx, bestScore := 0, math.Inf(1)
		for i, c := range t.Clusters {
			sum := 0.0
			for _, d := range t.distKm[i] {
				sum += d
			}
			// Resource-rich clusters win ties: subtract a small capacity bonus.
			capSum := int64(0)
			for _, w := range c.Workers {
				capSum += t.Node(w).Capacity.MilliCPU
			}
			score := sum - float64(capSum)/1e6
			if score < bestScore {
				bestScore, bestIdx = score, i
			}
		}
		t.Clusters[bestIdx].Central = true
	}
	return t
}

// GenConfig parameterizes the random heterogeneous topology generator.
type GenConfig struct {
	Clusters        int
	MinWorkers      int // workers per cluster, uniform in [Min,Max]
	MaxWorkers      int
	MasterCap       res.Vector
	WorkerCapMin    res.Vector // per-dimension uniform between Min and Max
	WorkerCapMax    res.Vector
	RegionSpreadDeg float64 // clusters scattered in a box this many degrees wide
	CenterLat       float64
	CenterLon       float64
}

// DefaultGenConfig mirrors the paper's virtual environment: clusters of
// 3–20 heterogeneous workers (4–16 CPUs, 8–32 GB) scattered over a region.
func DefaultGenConfig(clusters int) GenConfig {
	return GenConfig{
		Clusters:        clusters,
		MinWorkers:      3,
		MaxWorkers:      20,
		MasterCap:       res.V(8000, 16384, 1000),
		WorkerCapMin:    res.V(4000, 8192, 200),
		WorkerCapMax:    res.V(16000, 32768, 1000),
		RegionSpreadDeg: 8, // ~900 km box
		CenterLat:       32.0,
		CenterLon:       118.0,
	}
}

// Generate builds a random heterogeneous topology from cfg using rng.
func Generate(cfg GenConfig, rng *rand.Rand) *Topology {
	if cfg.Clusters <= 0 {
		panic("topo: Generate with no clusters")
	}
	if cfg.MaxWorkers < cfg.MinWorkers {
		panic("topo: MaxWorkers < MinWorkers")
	}
	b := NewBuilder()
	for i := 0; i < cfg.Clusters; i++ {
		addRandomCluster(b, cfg, rng)
	}
	return b.Build()
}

// addRandomCluster places one cluster of cfg's shape at a random point
// of its region. The explicit float64 conversions round each product
// so no architecture fuses it into the following add; rng.Float64
// divides by 2^63, which the compiler turns into such a product.
func addRandomCluster(b *Builder, cfg GenConfig, rng *rand.Rand) {
	lat := cfg.CenterLat + float64((float64(rng.Float64())-0.5)*cfg.RegionSpreadDeg)
	lon := cfg.CenterLon + float64((float64(rng.Float64())-0.5)*cfg.RegionSpreadDeg)
	n := cfg.MinWorkers
	if cfg.MaxWorkers > cfg.MinWorkers {
		n += rng.Intn(cfg.MaxWorkers - cfg.MinWorkers + 1)
	}
	caps := make([]res.Vector, n)
	for j := range caps {
		caps[j] = lerpVec(cfg.WorkerCapMin, cfg.WorkerCapMax, rng.Float64())
	}
	b.AddCluster(lat, lon, cfg.MasterCap, caps)
}

func lerpVec(lo, hi res.Vector, f float64) res.Vector {
	l := func(a, b int64) int64 { return a + int64(f*float64(b-a)) }
	return res.Vector{
		MilliCPU:  l(lo.MilliCPU, hi.MilliCPU),
		MemoryMiB: l(lo.MemoryMiB, hi.MemoryMiB),
		BWMbps:    l(lo.BWMbps, hi.BWMbps),
	}
}

// addTestbed adds PhysicalTestbed's four clusters.
func addTestbed(b *Builder) {
	locs := [][2]float64{{31.2, 121.5}, {32.1, 118.8}, {30.3, 120.2}, {31.8, 117.2}}
	for _, loc := range locs {
		workers := make([]res.Vector, 4)
		for i := range workers {
			workers[i] = res.V(4000, 8192, 500)
		}
		b.AddCluster(loc[0], loc[1], res.V(8000, 16384, 1000), workers)
	}
}

// PhysicalTestbed reproduces the paper's physical space: four clusters,
// each one master (8 CPU / 16 GB) plus four workers (4 CPU / 8 GB),
// placed ~100–400 km apart.
func PhysicalTestbed() *Topology {
	b := NewBuilder()
	addTestbed(b)
	return b.Build()
}

// DualSpace reproduces the paper's hybrid environment: the 4-cluster
// physical testbed plus `virtual` generated clusters (default 100) for a
// total of 1000+ nodes.
func DualSpace(virtual int, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	addTestbed(b)
	cfg := DefaultGenConfig(virtual)
	for i := 0; i < virtual; i++ {
		addRandomCluster(b, cfg, rng)
	}
	return b.Build()
}

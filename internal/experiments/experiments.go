// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each Fig* function runs the corresponding experiment
// on the simulated edge-cloud testbed and returns text tables with the
// same rows/series the paper reports, plus a machine-readable value map
// used by EXPERIMENTS.md and the benchmark harness.
//
// The Quick configuration keeps runs laptop-fast; Full stretches the
// traces and the dual-space scale toward the paper's setup.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baselines"
	"repro/internal/cgroup"
	"repro/internal/core"
	"repro/internal/dcgbe"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/hrm"
	"repro/internal/k8s"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/res"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config scales the experiments.
type Config struct {
	Seed     int64
	Duration time.Duration // workload length
	Drain    time.Duration // extra virtual time after arrivals stop
	LCRate   float64       // system-wide LC requests/second
	BERate   float64       // system-wide BE requests/second
	// VirtualClusters sizes the Figure 13 dual-space run (paper: 100).
	VirtualClusters int
	// TraceSink, when set, receives the lifecycle events of every system
	// the experiment runs (see internal/obs). TraceTag labels the events
	// so runs sharing one sink stay distinguishable.
	TraceSink obs.Sink
	TraceTag  string
	// OnSystem, when set, observes every system right after construction
	// and before any request is injected — the hook a live telemetry
	// server uses to point /metrics at the run currently executing.
	OnSystem func(*core.System)
	// Shards, when >1, partitions LC scheduling by region through the
	// sharded layer (internal/shard). It only affects systems running
	// the default DSS-LC scheduler — baselines that install their own
	// MakeLC are untouched.
	Shards int
}

// apply threads the experiment-level observability settings into one
// system's options.
func (c Config) apply(o core.Options) core.Options {
	o.TraceSink = c.TraceSink
	if o.TraceTag == "" {
		o.TraceTag = c.TraceTag
	}
	if c.Shards > 0 {
		o.LCShards = c.Shards
	}
	return o
}

// Quick returns a configuration that keeps the whole suite fast.
func Quick() Config {
	return Config{
		Seed: 1, Duration: 16 * time.Second, Drain: 8 * time.Second,
		LCRate: 40, BERate: 15, VirtualClusters: 12,
	}
}

// Full returns a configuration closer to the paper's scale.
func Full() Config {
	return Config{
		Seed: 1, Duration: 96 * time.Second, Drain: 16 * time.Second,
		LCRate: 80, BERate: 30, VirtualClusters: 100,
	}
}

// Result is one regenerated figure.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Values map[string]float64
	Notes  []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s — %s\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

func (c Config) clustersOf(t *topo.Topology) []topo.ClusterID {
	var out []topo.ClusterID
	for _, cl := range t.Clusters {
		out = append(out, cl.ID)
	}
	return out
}

// ratesFor converts offered-load fractions of the topology's total CPU
// into arrival rates, using the catalog's mean per-request work. The
// experiments size their workloads this way so the co-location pressure
// matches the paper's regardless of topology scale.
func ratesFor(t *topo.Topology, cat *trace.Catalog, lcFrac, beFrac float64) (lcRate, beRate float64) {
	totalCores := float64(t.TotalCapacity().MilliCPU) / 1000
	var lcWork, beWork float64 // core-seconds per request
	var lcN, beN int
	for _, st := range cat.Types {
		w := float64(st.Work) / 1e6
		if st.Class == trace.LC {
			lcWork += w
			lcN++
		} else {
			beWork += w
			beN++
		}
	}
	if lcN > 0 && lcWork > 0 {
		lcRate = lcFrac * totalCores / (lcWork / float64(lcN))
	}
	if beN > 0 && beWork > 0 {
		beRate = beFrac * totalCores / (beWork / float64(beN))
	}
	return lcRate, beRate
}

// traceLoad generates a trace offering the given fractions of total CPU.
// Optional weights skew the per-cluster arrival mix (geographically
// uneven load, §1); without them the generator draws random weights.
func (c Config) traceLoad(t *topo.Topology, p trace.Pattern, lcFrac, beFrac float64, seed int64, weights ...float64) []trace.Request {
	cat := trace.DefaultCatalog()
	lcR, beR := ratesFor(t, cat, lcFrac, beFrac)
	cfg := trace.DefaultGenConfig(c.clustersOf(t), p, c.Duration, seed)
	cfg.LCRatePerSec = lcR
	cfg.BERatePerSec = beR
	if len(weights) == len(cfg.Clusters) {
		cfg.ClusterWeights = weights
	}
	return trace.Generate(cfg)
}

// run executes one system over a request trace and returns it finished.
func (c Config) run(o core.Options, reqs []trace.Request, until time.Duration) *core.System {
	sys := core.New(c.apply(o))
	if c.OnSystem != nil {
		c.OnSystem(sys)
	}
	sys.Inject(reqs)
	sys.Run(until)
	return sys
}

// ---- scheduler factories for the pairing experiments ----

// LCNames lists the LC algorithms of Figure 11(a,b)/12.
var LCNames = []string{"DSS-LC", "scoring", "load-greedy", "k8s-native"}

// BENames lists the BE algorithms of Figure 11(c)/12.
var BENames = []string{"DCG-BE", "GNN-SAC", "load-greedy", "k8s-native"}

// MakeLCSched returns the factory for a named LC algorithm. DSS-LC is
// core's default LC scheduler, so its factory is nil.
func MakeLCSched(name string) func(e *engine.Engine, seed int64) any {
	switch name {
	case "DSS-LC":
		return nil
	case "scoring":
		return func(e *engine.Engine, seed int64) any { return sched.NewScoring(e.Topology()) }
	case "load-greedy":
		return func(e *engine.Engine, seed int64) any { return sched.LoadGreedy{} }
	case "k8s-native":
		return func(e *engine.Engine, seed int64) any { return &sched.RoundRobin{} }
	}
	panic("experiments: unknown LC scheduler " + name)
}

// MakeBESched returns the factory for a named BE algorithm.
func MakeBESched(name string) func(e *engine.Engine, seed int64) any {
	switch name {
	case "DCG-BE":
		return func(e *engine.Engine, seed int64) any { return dcgbe.New(e, seed) }
	case "GNN-SAC":
		return func(e *engine.Engine, seed int64) any {
			return dcgbe.NewVariant(e, dcgbe.Variant{Agent: "sac"}, seed)
		}
	case "load-greedy":
		return func(e *engine.Engine, seed int64) any { return sched.LoadGreedy{} }
	case "k8s-native":
		return func(e *engine.Engine, seed int64) any { return &sched.RoundRobin{} }
	}
	panic("experiments: unknown BE scheduler " + name)
}

// ---- Figure 1 ----

// Fig1 reproduces the motivating measurement: LC services deployed alone
// on over-provisioned edge-clouds show <20% average utilization while
// responding within ~300 ms targets.
func Fig1(cfg Config) *Result {
	tp := topo.PhysicalTestbed()
	o := core.Tango(tp, cfg.Seed)
	c := trace.DefaultGenConfig(cfg.clustersOf(tp), trace.Diurnal, cfg.Duration, cfg.Seed)
	// LC services deployed alone: provisioned for peak, so the average
	// offered load is a small fraction of capacity.
	lcR, _ := ratesFor(tp, trace.DefaultCatalog(), 0.13, 0)
	c.LCRatePerSec = lcR
	c.BERatePerSec = 0
	c.PeriodicCycle = cfg.Duration // one "day" across the run
	sys := cfg.run(o, trace.Generate(c), cfg.Duration+cfg.Drain)

	util := sys.Metrics.UtilSeries
	tb := metrics.NewTable("Figure 1 — industrial edge-cloud measurement (LC only)",
		"metric", "value")
	tb.AddRowF("mean utilization %", util.Mean()*100)
	maxU, minU := 0.0, 1.0
	for _, v := range util.Values {
		if v > maxU {
			maxU = v
		}
		if v < minU {
			minU = v
		}
	}
	tb.AddRowF("min period util %", minU*100)
	tb.AddRowF("max period util %", maxU*100)
	tb.AddRowF("mean LC latency ms", sys.Metrics.MeanLCLatencyMs())
	tb.AddRowF("QoS satisfaction", sys.Metrics.LC.Rate())

	return &Result{
		ID:     "fig1",
		Title:  "Measurement of industrial edge-clouds",
		Tables: []*metrics.Table{tb},
		Values: map[string]float64{
			"mean_util":       util.Mean(),
			"mean_latency_ms": sys.Metrics.MeanLCLatencyMs(),
		},
		Notes: []string{
			"paper: average utilization below 20%; most LC requests answered within ~300 ms",
		},
	}
}

// ---- Figure 9 ----

// Fig9 compares K8s with Tango's HRM against native K8s under the three
// workload patterns, reporting per-class and overall utilization.
func Fig9(cfg Config) *Result {
	tp := topo.PhysicalTestbed()
	tb := metrics.NewTable("Figure 9 — HRM vs K8s-native utilization",
		"pattern", "system", "LC util %", "BE util %", "overall util %", "QoS rate")
	values := map[string]float64{}
	for _, p := range []trace.Pattern{trace.P1, trace.P2, trace.P3} {
		// Co-location pressure: LC averages a quarter of the CPU, BE
		// offers a standing backlog (~85%) that elasticity can soak.
		reqs := cfg.traceLoad(tp, p, 0.25, 0.85, cfg.Seed+int64(p))
		// K8s with HRM: HRM allocation, default K8s scheduling (§7.1).
		hrmOpts := core.Options{
			Topo: tp, Seed: cfg.Seed,
			Policy:       hrm.NewRegulations(),
			MakeLC:       MakeLCSched("k8s-native"),
			MakeBE:       MakeBESched("k8s-native"),
			Reassure:     true,
			Boost:        true,
			CentralBE:    false,
			ScaleLatency: hrm.DVPAOpLatency,
		}
		hrmSys := cfg.run(hrmOpts, reqs, cfg.Duration+cfg.Drain)
		natSys := cfg.run(baselines.K8sNative(tp, reqs, cfg.Seed), reqs, cfg.Duration+cfg.Drain)
		for _, e := range []struct {
			name string
			sys  *core.System
		}{{"K8s+HRM", hrmSys}, {"K8s-native", natSys}} {
			m := e.sys.Metrics
			tb.AddRowF(p.String(), e.name,
				m.LCUtilSeries.Mean()*100, m.BEUtilSeries.Mean()*100,
				m.UtilSeries.Mean()*100, m.LC.Rate())
			values[fmt.Sprintf("%s_%s_util", p, e.name)] = m.UtilSeries.Mean()
		}
	}
	imp := values["P3_K8s+HRM_util"] / nonzero(values["P3_K8s-native_util"])
	return &Result{
		ID:     "fig9",
		Title:  "HRM effectiveness under workload patterns P1–P3",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes: []string{
			fmt.Sprintf("P3 overall utilization ratio HRM/native = %.2fx (paper: HRM clearly higher, Fig. 9(d))", imp),
		},
	}
}

// DVPAMicro reproduces the §7.1 scaling micro-measurement: one D-VPA
// operation (~23 ms, no interruption) vs the native VPA delete-and-
// rebuild (~100× slower, with downtime).
func DVPAMicro(cfg Config) *Result {
	s := sim.New()
	store := k8s.NewStore()
	kl := k8s.NewKubelet(s, store, 1, res.V(8000, 16384, 0))
	var tr *obs.Tracer
	if cfg.TraceSink != nil {
		tr = obs.NewTracer(s.Now, cfg.TraceSink)
		tr.SetTag(cfg.TraceTag)
		store.SetTracer(tr)
		kl.Node().CGroups.SetTracer(tr)
	}
	pod, err := store.CreatePod(k8s.PodSpec{
		Name: "svc", QoS: cgroup.Burstable,
		Request: res.V(1000, 1024, 0), Limit: res.V(1000, 1024, 0), Node: 1,
	})
	if err != nil {
		panic(err)
	}
	if err := kl.RunPod(pod, nil); err != nil {
		panic(err)
	}
	s.Run()

	vpa := &k8s.NativeVPA{Kubelet: kl, Store: store}
	start := s.Now()
	rebuilt := false
	downtime, err := vpa.Resize(pod, res.V(2000, 2048, 0), func() { rebuilt = true })
	if err != nil {
		panic(err)
	}
	s.Run()
	wall := s.Now() - start
	if !rebuilt {
		panic("experiments: native VPA never rebuilt")
	}

	d := hrm.NewDVPA()
	d.Tracer, d.Now = tr, s.Now
	np, _ := store.GetPod("svc")
	lat, err := d.Resize(kl.Node().CGroups, np.PodGroup, np.ContainerGroup, res.V(1500, 1500, 0))
	if err != nil {
		panic(err)
	}

	tb := metrics.NewTable("§7.1 — single vertical scaling operation",
		"mechanism", "latency", "interrupts container")
	tb.AddRowF("Tango D-VPA", lat, "no")
	tb.AddRowF("K8s VPA (delete-and-rebuild)", downtime, "yes")
	ratio := float64(downtime) / float64(lat)
	return &Result{
		ID:     "dvpa",
		Title:  "D-VPA scaling operation vs native VPA",
		Tables: []*metrics.Table{tb},
		Values: map[string]float64{
			"dvpa_ms":   float64(lat) / float64(time.Millisecond),
			"native_ms": float64(downtime) / float64(time.Millisecond),
			"ratio":     ratio,
		},
		Notes: []string{
			fmt.Sprintf("ratio = %.0fx (paper: 23 ms, ~100x faster than delete-and-rebuild)", ratio),
			fmt.Sprintf("wall downtime measured on the virtual clock: %v", wall),
		},
	}
}

// ---- Figure 10 ----

// Fig10 measures the QoS re-assurance mechanism: QoS rate and BE
// throughput with and without it, under P1–P3.
func Fig10(cfg Config) *Result {
	tp := topo.PhysicalTestbed()
	tb := metrics.NewTable("Figure 10 — QoS re-assurance on/off",
		"pattern", "re-assurance", "QoS rate", "BE throughput", "norm QoS", "norm tput")
	values := map[string]float64{}
	for _, p := range []trace.Pattern{trace.P1, trace.P2, trace.P3} {
		reqs := cfg.traceLoad(tp, p, 0.5, 0.5, cfg.Seed+10+int64(p))
		var qos [2]float64
		var tput [2]float64
		for i, reassure := range []bool{true, false} {
			o := core.Tango(tp, cfg.Seed)
			o.Reassure = reassure
			sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
			qos[i] = sys.Metrics.LC.Rate()
			tput[i] = sys.Metrics.ThroughputSer.Sum()
		}
		maxQ := maxf(qos[0], qos[1])
		maxT := maxf(tput[0], tput[1])
		tb.AddRowF(p.String(), "with", qos[0], int64(tput[0]), qos[0]/nonzero(maxQ), tput[0]/nonzero(maxT))
		tb.AddRowF(p.String(), "without", qos[1], int64(tput[1]), qos[1]/nonzero(maxQ), tput[1]/nonzero(maxT))
		values[p.String()+"_qos_with"] = qos[0]
		values[p.String()+"_qos_without"] = qos[1]
	}
	return &Result{
		ID:     "fig10",
		Title:  "QoS-guarantee satisfaction and throughput with/without re-assurance",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes:  []string{"paper: re-assurance lifts LC QoS across all three patterns at modest BE cost"},
	}
}

// ---- Figure 11(a,b) ----

// Fig11ab compares LC scheduling algorithms (BE fixed to k8s-native):
// QoS rate, tail latency and abandoned requests.
func Fig11ab(cfg Config) *Result {
	tp := topo.PhysicalTestbed()
	reqs := cfg.traceLoad(tp, trace.P3, 0.6, 0.2, cfg.Seed+20)
	tb := metrics.NewTable("Figure 11(a,b) — LC scheduling algorithms",
		"algorithm", "QoS rate", "mean latency ms", "p95 latency ms", "abandoned")
	values := map[string]float64{}
	for _, name := range LCNames {
		o := core.Tango(tp, cfg.Seed)
		o.MakeLC = MakeLCSched(name)
		o.MakeBE = MakeBESched("k8s-native")
		sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
		m := sys.Metrics
		p95 := m.TailLatencySer.Mean()
		tb.AddRowF(name, m.LC.Rate(), m.MeanLCLatencyMs(), p95, m.LC.Abandoned)
		values[name+"_qos"] = m.LC.Rate()
		values[name+"_abandoned"] = float64(m.LC.Abandoned)
	}
	return &Result{
		ID:     "fig11ab",
		Title:  "DSS-LC vs load-greedy, k8s-native, scoring",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes:  []string{"paper: DSS-LC best on all three metrics and most stable"},
	}
}

// DecisionTime measures DSS-LC's batch decision latency for a batch of
// 100 requests on fleets of 100 to 2000 nodes, extending the paper's two
// points (500 and 1000 nodes: 1.99 ms and 3.98 ms) into a curve.
func DecisionTime(cfg Config, measure func(func()) time.Duration) *Result {
	tb := metrics.NewTable("§7.2 — DSS-LC decision time",
		"nodes", "batch=100 decision time", "per-request µs")
	values := map[string]float64{}
	for _, nodes := range []int{100, 250, 500, 1000, 2000} {
		clusters := nodes / 10
		tp := topo.Generate(topo.GenConfig{
			Clusters: clusters, MinWorkers: 10, MaxWorkers: 10,
			MasterCap:    res.V(8000, 16384, 1000),
			WorkerCapMin: res.V(4000, 8192, 200), WorkerCapMax: res.V(16000, 32768, 1000),
			RegionSpreadDeg: 3, CenterLat: 32, CenterLon: 118,
		}, rand.New(rand.NewSource(cfg.Seed)))
		s := sim.New()
		e := engine.New(engine.Config{Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}})
		// The 3° box's diagonal is ~437 km, inside the 500 km radius:
		// every node is a candidate, the worst case.
		d := dsslc.New(e, cfg.Seed)
		var batch []*engine.Request
		for i := 0; i < 100; i++ {
			batch = append(batch, e.NewRequest(trace.Request{
				ID: int64(i), Type: trace.TypeID(i % 5), Class: trace.LC, Cluster: 0,
			}))
		}
		out := dsslc.Assignment{}
		el := measure(func() { d.ScheduleBatchInto(0, batch, out) })
		tb.AddRowF(nodes, el, float64(el)/float64(time.Microsecond)/100)
		values[fmt.Sprintf("decision_ms_%d", nodes)] = float64(el) / float64(time.Millisecond)
	}
	return &Result{
		ID:     "dsslc-decision",
		Title:  "DSS-LC decision time vs node count",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes:  []string{"paper: 1.99 ms at 500 nodes, 3.98 ms at 1000 nodes (<2% of QoS target)"},
	}
}

// heteroTopo builds the heterogeneous multi-cluster topology used by the
// BE-scheduling experiments: 6 clusters of 3-20 workers with 4-16 CPUs
// (the §6.1 virtual-cluster shape). Capacity-blind baselines overload
// the small nodes here, which is exactly the edge heterogeneity §1
// motivates.
func heteroTopo(seed int64) *topo.Topology {
	return topo.Generate(topo.DefaultGenConfig(6), rand.New(rand.NewSource(seed+300)))
}

var heteroWeights = []float64{5, 3, 2, 1, 1, 1}

// ---- Figure 11(c) ----

// Fig11c compares BE scheduling algorithms (LC fixed to k8s-native):
// long-term BE throughput.
func Fig11c(cfg Config) *Result {
	tp := heteroTopo(cfg.Seed)
	reqs := cfg.traceLoad(tp, trace.P3, 0.5, 1.1, cfg.Seed+30, heteroWeights...)
	tb := metrics.NewTable("Figure 11(c) — BE scheduling algorithms",
		"algorithm", "BE throughput", "normalized")
	values := map[string]float64{}
	best := 0.0
	tputs := map[string]float64{}
	for _, name := range BENames {
		o := core.Tango(tp, cfg.Seed)
		o.MakeLC = MakeLCSched("k8s-native")
		o.MakeBE = MakeBESched(name)
		sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
		tputs[name] = sys.Metrics.ThroughputSer.Sum()
		if tputs[name] > best {
			best = tputs[name]
		}
	}
	for _, name := range BENames {
		tb.AddRowF(name, int64(tputs[name]), tputs[name]/nonzero(best))
		values[name+"_tput"] = tputs[name]
	}
	return &Result{
		ID:     "fig11c",
		Title:  "DCG-BE vs GNN-SAC, load-greedy, k8s-native",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes:  []string{"paper: all beat k8s-native; DCG-BE ~9.3% over GNN-SAC"},
	}
}

// ---- Figure 11(d) ----

// Fig11d ablates the GNN structure inside DCG-BE.
func Fig11d(cfg Config) *Result {
	tp := heteroTopo(cfg.Seed)
	reqs := cfg.traceLoad(tp, trace.P3, 0.5, 1.1, cfg.Seed+40, heteroWeights...)
	encoders := []struct{ label, enc string }{
		{"GraphSAGE-A2C", "sage"}, {"GCN-A2C", "gcn"}, {"GAT-A2C", "gat"}, {"Native-A2C", "native"},
	}
	tb := metrics.NewTable("Figure 11(d) — GNN structures in DCG-BE",
		"encoder", "BE throughput", "normalized")
	values := map[string]float64{}
	best := 0.0
	tputs := map[string]float64{}
	for _, enc := range encoders {
		o := core.Tango(tp, cfg.Seed)
		o.MakeLC = MakeLCSched("k8s-native")
		encName := enc.enc
		o.MakeBE = func(e *engine.Engine, seed int64) any {
			return dcgbe.NewVariant(e, dcgbe.Variant{Encoder: encName}, seed)
		}
		sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
		tputs[enc.label] = sys.Metrics.ThroughputSer.Sum()
		if tputs[enc.label] > best {
			best = tputs[enc.label]
		}
	}
	for _, enc := range encoders {
		tb.AddRowF(enc.label, int64(tputs[enc.label]), tputs[enc.label]/nonzero(best))
		values[enc.label] = tputs[enc.label]
	}
	return &Result{
		ID:     "fig11d",
		Title:  "DCG-BE with different GNN structures",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes:  []string{"paper: GraphSAGE best via inductive representation learning"},
	}
}

// ---- Figure 12 ----

// Fig12 runs the 4×4 algorithm pairing matrix.
func Fig12(cfg Config) *Result {
	tp := heteroTopo(cfg.Seed)
	reqs := cfg.traceLoad(tp, trace.P3, 0.45, 1.0, cfg.Seed+50, heteroWeights...)
	qosT := metrics.NewTable("Figure 12(a) — QoS rate by pairing (rows: LC, cols: BE)",
		append([]string{"LC \\ BE"}, BENames...)...)
	tputT := metrics.NewTable("Figure 12(b) — BE throughput by pairing",
		append([]string{"LC \\ BE"}, BENames...)...)
	values := map[string]float64{}
	for _, lc := range LCNames {
		qrow := []any{lc}
		trow := []any{lc}
		for _, be := range BENames {
			o := core.Tango(tp, cfg.Seed)
			o.MakeLC = MakeLCSched(lc)
			o.MakeBE = MakeBESched(be)
			sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
			q := sys.Metrics.LC.Rate()
			tp2 := sys.Metrics.ThroughputSer.Sum()
			qrow = append(qrow, q)
			trow = append(trow, int64(tp2))
			values[lc+"+"+be+"_qos"] = q
			values[lc+"+"+be+"_tput"] = tp2
		}
		qosT.AddRowF(qrow...)
		tputT.AddRowF(trow...)
	}
	return &Result{
		ID:     "fig12",
		Title:  "Algorithm pairing analysis",
		Tables: []*metrics.Table{qosT, tputT},
		Values: values,
		Notes: []string{
			"paper: DSS-LC ~+8.2% QoS over other LC algorithms; DSS-LC+DCG-BE the best pair (+5.9% over DCG-BE+k8s-native)",
		},
	}
}

// ---- Figure 13 ----

// Fig13 runs the large-scale dual-space comparison: Tango vs CERES vs
// DSACO.
func Fig13(cfg Config) *Result {
	tp := topo.DualSpace(cfg.VirtualClusters, cfg.Seed)
	reqs := cfg.traceLoad(tp, trace.Diurnal, 0.4, 0.7, cfg.Seed+60)
	tb := metrics.NewTable("Figure 13 — large-scale hybrid edge-clouds",
		"system", "util %", "QoS rate", "BE throughput", "abandoned")
	type row struct {
		name string
		opts core.Options
	}
	rows := []row{
		{"Tango", core.Tango(tp, cfg.Seed)},
		{"CERES", baselines.CERES(tp, cfg.Seed)},
		{"DSACO", baselines.DSACO(tp, cfg.Seed)},
	}
	values := map[string]float64{}
	for _, r := range rows {
		sys := cfg.run(r.opts, reqs, cfg.Duration+cfg.Drain)
		m := sys.Metrics
		tput := m.ThroughputSer.Sum()
		tb.AddRowF(r.name, m.UtilSeries.Mean()*100, m.LC.Rate(), int64(tput), m.LC.Abandoned)
		values[r.name+"_util"] = m.UtilSeries.Mean()
		values[r.name+"_qos"] = m.LC.Rate()
		values[r.name+"_tput"] = tput
	}
	notes := []string{
		fmt.Sprintf("util: Tango/CERES = %.2fx (paper: +36.9%%)",
			values["Tango_util"]/nonzero(values["CERES_util"])),
		fmt.Sprintf("QoS: Tango-DSACO = %+.1f pp (paper: +11.3%%)",
			100*(values["Tango_qos"]-values["DSACO_qos"])),
		fmt.Sprintf("throughput: Tango/CERES = %.2fx (paper: +47.6%%)",
			values["Tango_tput"]/nonzero(values["CERES_tput"])),
	}
	return &Result{
		ID:     "fig13",
		Title:  "Tango vs CERES vs DSACO at scale",
		Tables: []*metrics.Table{tb},
		Values: values,
		Notes:  notes,
	}
}

// ---- Ablations (DESIGN.md §4) ----

// AblationMasking toggles DCG-BE's policy context filtering.
func AblationMasking(cfg Config) *Result {
	tp := heteroTopo(cfg.Seed)
	reqs := cfg.traceLoad(tp, trace.P3, 0.5, 1.1, cfg.Seed+70, heteroWeights...)
	tb := metrics.NewTable("Ablation — DCG-BE policy context filtering",
		"masking", "BE throughput", "QoS rate")
	values := map[string]float64{}
	for _, masked := range []bool{true, false} {
		o := core.Tango(tp, cfg.Seed)
		m := masked
		o.MakeBE = func(e *engine.Engine, seed int64) any {
			s := dcgbe.New(e, seed)
			s.DisableMasking = !m
			return s
		}
		sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
		label := "on"
		if !masked {
			label = "off"
		}
		tb.AddRowF(label, int64(sys.Metrics.ThroughputSer.Sum()), sys.Metrics.LC.Rate())
		values["tput_masking_"+label] = sys.Metrics.ThroughputSer.Sum()
	}
	return &Result{ID: "ablation-masking", Title: "Context filtering ablation",
		Tables: []*metrics.Table{tb}, Values: values}
}

// AblationReward toggles the long-term reward term (η).
func AblationReward(cfg Config) *Result {
	tp := heteroTopo(cfg.Seed)
	reqs := cfg.traceLoad(tp, trace.P3, 0.5, 1.1, cfg.Seed+80, heteroWeights...)
	tb := metrics.NewTable("Ablation — DCG-BE reward split r_short + η·r_long",
		"eta", "BE throughput")
	values := map[string]float64{}
	for _, eta := range []float64{1, 0} {
		o := core.Tango(tp, cfg.Seed)
		etaV := eta
		o.MakeBE = func(e *engine.Engine, seed int64) any {
			s := dcgbe.New(e, seed)
			s.Eta = etaV
			return s
		}
		sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
		tb.AddRowF(eta, int64(sys.Metrics.ThroughputSer.Sum()))
		values[fmt.Sprintf("tput_eta_%g", eta)] = sys.Metrics.ThroughputSer.Sum()
	}
	return &Result{ID: "ablation-reward", Title: "Reward split ablation",
		Tables: []*metrics.Table{tb}, Values: values}
}

// AblationPreemption toggles HRM's BE preemption.
func AblationPreemption(cfg Config) *Result {
	tp := topo.PhysicalTestbed()
	reqs := cfg.traceLoad(tp, trace.P1, 0.5, 0.6, cfg.Seed+90)
	tb := metrics.NewTable("Ablation — §4.1 preemption of BE by LC",
		"preemption", "QoS rate", "abandoned")
	values := map[string]float64{}
	for _, on := range []bool{true, false} {
		o := core.Tango(tp, cfg.Seed)
		pol := hrm.NewRegulations()
		pol.DisablePreemption = !on
		o.Policy = pol
		sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
		label := "on"
		if !on {
			label = "off"
		}
		tb.AddRowF(label, sys.Metrics.LC.Rate(), sys.Metrics.LC.Abandoned)
		values["qos_preempt_"+label] = sys.Metrics.LC.Rate()
	}
	return &Result{ID: "ablation-preemption", Title: "Preemption ablation",
		Tables: []*metrics.Table{tb}, Values: values}
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

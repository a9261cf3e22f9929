package chaos

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Flash-crowd request IDs live far above any main-trace ID (traces
// number sequentially from 0) so burst requests never collide in the
// engine's per-node running maps or the span-ID space.
const (
	FlashIDBase   int64 = 1 << 40
	FlashIDStride int64 = 1 << 28
)

// InjectorConfig wires an Injector into a running system without the
// chaos package importing core (core imports chaos): the system hands
// in its primitives plus callbacks for the pieces only it can do.
type InjectorConfig struct {
	Sim    *sim.Simulator
	Engine *engine.Engine
	Topo   *topo.Topology
	// Tracer may be nil (events are then skipped, like everywhere else).
	Tracer *obs.Tracer
	// Gen is the flash-crowd template: bursts copy it, scale its rates by
	// the fault Factor, restrict it to the fault's cluster and window,
	// and stamp collision-free IDs.
	Gen trace.GenConfig
	// Inject delivers flash-crowd arrivals (core.System.Inject).
	Inject func([]trace.Request)
	// StallMaster pauses one cluster's LC dispatch until the given
	// virtual time.
	StallMaster func(c topo.ClusterID, until time.Duration)
	// StallCollector pauses the metrics collector until the given time.
	StallCollector func(until time.Duration)
	// OnRevive runs after every node/cluster revival — the differential
	// oracle hooks its engine/cgroup self-check sweeps here.
	OnRevive func()
}

// Window is one closed fault interval, kept for SLO attribution.
type Window struct {
	Kind  Kind
	Start time.Duration
	End   time.Duration // open-ended faults extend to the end of the run
}

// Injector arms a Program against a live system.
type Injector struct {
	prog Program
	cfg  InjectorConfig

	// Counters feeding the tango_chaos_* gauges.
	Applied  int64 // faults applied so far
	Cleared  int64 // windowed faults cleared so far
	Active   int64 // currently-open fault windows
	Injected int64 // flash-crowd requests injected

	windows []Window
}

// NewInjector binds a program to a system. Call Arm before Start.
func NewInjector(p Program, cfg InjectorConfig) *Injector {
	p.Normalize()
	return &Injector{prog: p, cfg: cfg}
}

// Program returns the armed program.
func (inj *Injector) Program() Program { return inj.prog }

// Arm schedules every fault (and windowed clear) as ordinary sim
// events. Must be called before the clock starts moving for absolute
// fault times to land where the program says.
func (inj *Injector) Arm() {
	for i := range inj.prog.Faults {
		i := i
		inj.cfg.Sim.ScheduleAt(inj.prog.Faults[i].At, func() { inj.apply(i) })
	}
}

// hasClear reports whether a kind needs an explicit clearing action at
// window end (stalls and flash crowds expire on their own).
func hasClear(k Kind) bool {
	switch k {
	case NodeKill, ClusterKill, Partition, RTTInflate:
		return true
	}
	return false
}

func (inj *Injector) apply(i int) {
	f := inj.prog.Faults[i]
	inj.Applied++
	inj.Active++
	end := f.At + f.Span
	if f.Span <= 0 {
		end = 1<<63 - 1
	}
	inj.windows = append(inj.windows, Window{Kind: f.Kind, Start: f.At, End: end})
	inj.emit(f, 1)
	switch f.Kind {
	case NodeKill:
		inj.cfg.Engine.Node(f.Node).Fail()
	case ClusterKill:
		inj.cfg.Engine.FailCluster(f.Cluster)
	case Partition:
		inj.cfg.Topo.Net().Partition(f.Cluster, f.Peer)
	case RTTInflate:
		inj.cfg.Topo.Net().SetRTTFactor(f.Cluster, f.Peer, f.Factor)
	case FlashCrowd:
		inj.flash(i, f)
	case MasterStall:
		if inj.cfg.StallMaster != nil && f.Span > 0 {
			inj.cfg.StallMaster(f.Cluster, f.At+f.Span)
		}
	case CollectorStall:
		if inj.cfg.StallCollector != nil && f.Span > 0 {
			inj.cfg.StallCollector(f.At + f.Span)
		}
	}
	if f.Span > 0 {
		if hasClear(f.Kind) {
			inj.cfg.Sim.Schedule(f.Span, func() { inj.clear(i) })
		} else {
			// Self-expiring kinds only decrement the active gauge.
			inj.cfg.Sim.Schedule(f.Span, func() { inj.Active-- })
		}
	}
}

func (inj *Injector) clear(i int) {
	f := inj.prog.Faults[i]
	inj.Cleared++
	inj.Active--
	inj.emit(f, 0)
	switch f.Kind {
	case NodeKill:
		inj.cfg.Engine.Node(f.Node).Recover()
		inj.revived()
	case ClusterKill:
		inj.cfg.Engine.RecoverCluster(f.Cluster)
		inj.revived()
	case Partition:
		inj.cfg.Topo.Net().Heal(f.Cluster, f.Peer)
	case RTTInflate:
		inj.cfg.Topo.Net().ClearRTTFactor(f.Cluster, f.Peer)
	}
}

func (inj *Injector) revived() {
	if inj.cfg.OnRevive != nil {
		inj.cfg.OnRevive()
	}
}

func (inj *Injector) emit(f Fault, applied int64) {
	tr := inj.cfg.Tracer
	if !tr.Enabled() {
		return
	}
	tr.Emit(obs.Ev(obs.EvChaos).Node(int(f.Node)).Clu(int(f.Cluster)).
		Note(f.Kind.String()).Val(float64(f.Span) / float64(time.Millisecond)).Au(applied))
}

// flash generates and injects one burst. The burst trace derives from
// the program seed and the fault index only, so it is identical across
// replays of the same program regardless of when other faults fire.
func (inj *Injector) flash(i int, f Fault) {
	gen := inj.cfg.Gen
	gen.Seed = inj.prog.Seed*1_000_003 + int64(i)
	gen.FirstID = FlashIDBase + int64(i)*FlashIDStride
	gen.Start = f.At
	gen.Duration = f.Span
	gen.PeriodicCycle = f.Span // one full wave/bell per burst window
	gen.LCRatePerSec *= f.Factor
	gen.BERatePerSec *= f.Factor
	gen.Clusters = []topo.ClusterID{f.Cluster}
	gen.ClusterWeights = []float64{1}
	if i%2 == 0 {
		gen.Pattern = trace.Wavy
	} else {
		gen.Pattern = trace.Normal
	}
	burst := trace.Generate(gen)
	inj.Injected += int64(len(burst))
	if inj.cfg.Inject != nil {
		inj.cfg.Inject(burst)
	}
}

// Overlapping reports whether any fault window overlaps [start, end].
func (inj *Injector) Overlapping(start, end time.Duration) bool {
	for _, w := range inj.windows {
		if w.Start <= end && start <= w.End {
			return true
		}
	}
	return false
}

// AttributedEpisodes counts, over every service in the accountant, the
// closed violation episodes that overlap at least one fault window —
// the "SLO episodes attribute violations to active faults" half of the
// ChaosDiff oracle. Returns (attributed, total).
func (inj *Injector) AttributedEpisodes(acct *obs.SLOAccountant) (attributed, total int) {
	for _, s := range acct.Services() {
		for _, ep := range s.Episodes {
			total++
			if inj.Overlapping(ep.Start, ep.End) {
				attributed++
			}
		}
	}
	return attributed, total
}

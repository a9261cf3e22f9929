package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/trace"
)

// meanRollingPhi averages the SLO accountant's sliding-window
// satisfaction rate over every LC service seen.
func meanRollingPhi(s *core.System) float64 {
	svcs := s.SLO.Services()
	if len(svcs) == 0 {
		return 1
	}
	sum := 0.0
	for _, sv := range svcs {
		sum += sv.RollingPhi()
	}
	return sum / float64(len(svcs))
}

// ChaosMigration is an extension experiment: the same node/cluster
// churn program hits two otherwise-identical Tango systems, one with
// live migration + periodic defragmentation, one without. The SLO
// accountant answers "did migration help φ": under churn, draining BE
// work off pressured survivors onto cold nodes should hold rolling φ at
// or above the no-migration arm.
func ChaosMigration(cfg Config) *Result {
	tp := topo.PhysicalTestbed()
	reqs := cfg.traceLoad(tp, trace.P3, 0.45, 0.3, cfg.Seed+200, 4, 1, 1, 1)
	prog, err := chaos.Preset("churn", tp, cfg.Duration, cfg.Seed)
	if err != nil {
		panic(err)
	}

	runWith := func(tag string, defrag bool) *core.System {
		o := core.Tango(tp, cfg.Seed)
		o.TraceTag = cfg.TraceTag + tag
		p := prog
		o.Chaos = &p
		o.Verify = true
		o.Defrag = defrag
		return cfg.run(o, reqs, cfg.Duration+cfg.Drain)
	}

	with := runWith("/migrate", true)
	without := runWith("/nomigrate", false)
	with.SLO.Finalize()
	without.SLO.Finalize()

	phiWith, phiWithout := with.Metrics.LC.Rate(), without.Metrics.LC.Rate()
	rollWith, rollWithout := meanRollingPhi(with), meanRollingPhi(without)
	attributed, total := with.Chaos.AttributedEpisodes(with.SLO)

	tb := metrics.NewTable("Extension — live migration + defrag under churn ("+prog.Name+" program)",
		"scenario", "QoS rate", "rolling phi", "migrations", "abandoned", "BE throughput")
	tb.AddRowF("Tango + migration/defrag", phiWith, rollWith, with.Engine.Migrations,
		with.Metrics.LC.Abandoned, int64(with.Metrics.ThroughputSer.Sum()))
	tb.AddRowF("Tango, no migration", phiWithout, rollWithout, without.Engine.Migrations,
		without.Metrics.LC.Abandoned, int64(without.Metrics.ThroughputSer.Sum()))

	notes := []string{
		fmt.Sprintf("defrag: %d passes, %d moves; %d/%d SLO violation episodes overlap a fault window",
			with.Defrag.Passes, with.Defrag.Moves, attributed, total),
		"extension beyond the paper: KubeDSM-style defragmentation on top of Tango's dispatchers",
	}
	if errv := with.Verifier.Err(); errv != nil {
		notes = append(notes, "VERIFIER VIOLATIONS (migration arm): "+errv.Error())
	}
	if errv := without.Verifier.Err(); errv != nil {
		notes = append(notes, "VERIFIER VIOLATIONS (control arm): "+errv.Error())
	}

	return &Result{
		ID:     "chaos-migration",
		Title:  "Chaos churn with and without live migration",
		Tables: []*metrics.Table{tb},
		Values: map[string]float64{
			"phi_with":         phiWith,
			"phi_without":      phiWithout,
			"rolling_with":     rollWith,
			"rolling_without":  rollWithout,
			"migrations":       float64(with.Engine.Migrations),
			"defrag_moves":     float64(with.Defrag.Moves),
			"episodes_faulted": float64(attributed),
			"episodes_total":   float64(total),
		},
		Notes: notes,
	}
}

// ChaosSurvival runs the full fault mix (partitions, RTT storms, flash
// crowds, stalls on top of churn) against Tango with the conservation
// oracle's bookkeeping surfaced as a table: arrivals vs resolutions,
// fault windows applied/cleared, chaos-attributed SLO episodes.
func ChaosSurvival(cfg Config) *Result {
	tp := topo.PhysicalTestbed()
	reqs := cfg.traceLoad(tp, trace.P3, 0.45, 0.3, cfg.Seed+300, 4, 1, 1, 1)
	prog, err := chaos.Preset("all", tp, cfg.Duration, cfg.Seed)
	if err != nil {
		panic(err)
	}

	o := core.Tango(tp, cfg.Seed)
	o.Chaos = &prog
	o.Defrag = true
	o.Verify = true
	sys := cfg.run(o, reqs, cfg.Duration+cfg.Drain)
	sys.SLO.Finalize()

	arrived := sys.Metrics.LC.Arrived + sys.Metrics.BE.Arrived
	resolved := sys.Metrics.LC.Completed + sys.Metrics.LC.Abandoned + sys.Metrics.BE.Completed
	attributed, total := sys.Chaos.AttributedEpisodes(sys.SLO)

	tb := metrics.NewTable("Extension — chaos survival ("+prog.Name+" program, "+
		fmt.Sprintf("%d faults", len(prog.Faults))+")",
		"measure", "value")
	tb.AddRowF("requests arrived", arrived)
	tb.AddRowF("requests resolved", resolved)
	tb.AddRowF("faults applied", sys.Chaos.Applied)
	tb.AddRowF("faults cleared", sys.Chaos.Cleared)
	tb.AddRowF("flash-crowd injected", sys.Chaos.Injected)
	tb.AddRowF("live migrations", sys.Engine.Migrations)
	tb.AddRowF("QoS rate", sys.Metrics.LC.Rate())

	verdict := "clean"
	if err := sys.Verifier.Err(); err != nil {
		verdict = err.Error()
	}
	return &Result{
		ID:     "chaos-survival",
		Title:  "Full fault mix with the differential survival oracle",
		Tables: []*metrics.Table{tb},
		Values: map[string]float64{
			"arrived":          float64(arrived),
			"phi":              sys.Metrics.LC.Rate(),
			"faults":           float64(sys.Chaos.Applied),
			"migrations":       float64(sys.Engine.Migrations),
			"episodes_faulted": float64(attributed),
			"episodes_total":   float64(total),
		},
		Notes: []string{
			"verifier: " + verdict,
			fmt.Sprintf("fault program digest %s", prog.Digest()[:16]),
		},
	}
}

package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/trace"
)

// traceRun runs a Tango system with a ring sink big enough to retain
// every span. failWorkers>0 concentrates all load on cluster 0 and
// fails that many of its workers for the middle third (the failover
// scenario); 0 spreads the load over every cluster with no failures.
func traceRun(t *testing.T, dur time.Duration, lcRate, beRate float64, failWorkers int) (*System, *obs.RingSink) {
	t.Helper()
	tp := smallTopo()
	o := Tango(tp, 11)
	ring := obs.NewRingSink(1 << 18)
	o.TraceSink = ring
	sys := New(o)
	cs := []topo.ClusterID{0}
	if failWorkers == 0 {
		cs = nil
		for _, c := range tp.Clusters {
			cs = append(cs, c.ID)
		}
	}
	cfg := trace.DefaultGenConfig(cs, trace.P3, dur, 12)
	cfg.LCRatePerSec = lcRate
	cfg.BERatePerSec = beRate
	sys.Inject(trace.Generate(cfg))
	for _, v := range tp.Cluster(0).Workers[:failWorkers] {
		sys.FailNode(v, dur/3)
		sys.RecoverNode(v, 2*dur/3)
	}
	sys.Run(dur + 10*time.Second)
	if ring.SpanTotal() != uint64(len(ring.Spans())) {
		t.Fatalf("span ring wrapped (%d recorded, %d retained); raise capacity",
			ring.SpanTotal(), len(ring.Spans()))
	}
	return sys, ring
}

// TestSpanTilingOver60s pins the tentpole's core contract on a
// 60-sim-second run: for every resolved LC request, the child spans
// exactly tile [arrival, completion], so their durations sum to the
// end-to-end latency (well within the 1% acceptance bound).
func TestSpanTilingOver60s(t *testing.T) {
	if testing.Short() {
		t.Skip("60 sim-second run")
	}
	sys, ring := traceRun(t, 60*time.Second, 20, 5, 0)

	spans := ring.Spans()
	children := map[uint64][]obs.Span{}
	var roots []obs.Span
	for _, s := range spans {
		if s.Name == obs.SpanRequest {
			roots = append(roots, s)
		} else if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if len(roots) == 0 {
		t.Fatal("no request root spans emitted")
	}
	var lcCompleted int
	for _, r := range roots {
		kids := children[r.ID]
		if len(kids) == 0 {
			t.Fatalf("request span %d (req %d) has no children", r.ID, r.ReqID)
		}
		var sum time.Duration
		for _, k := range kids {
			if k.End < k.Start {
				t.Fatalf("span %d %q has negative duration", k.ID, k.Name)
			}
			sum += k.End - k.Start
		}
		if e2e := r.End - r.Start; sum != e2e {
			t.Fatalf("req %d (%s, detail %q): child sum %v != e2e %v (children %d)",
				r.ReqID, r.Class, r.Detail, sum, e2e, len(kids))
		}
		if r.Class == "LC" && (r.Detail == "" || r.Detail == "violated") {
			lcCompleted++
		}
	}
	if lcCompleted < 500 {
		t.Fatalf("only %d completed LC requests traced; load too light for the check", lcCompleted)
	}
	if int64(len(roots)) != sys.Metrics.LC.Completed+sys.Metrics.LC.Abandoned+sys.Metrics.BE.Completed+sys.Metrics.BE.Abandoned {
		t.Fatalf("root spans %d != resolved requests %d", len(roots),
			sys.Metrics.LC.Completed+sys.Metrics.LC.Abandoned+sys.Metrics.BE.Completed+sys.Metrics.BE.Abandoned)
	}
	if len(ring.Decisions()) == 0 {
		t.Fatal("no scheduling decisions audited")
	}
	// Every DSS-LC-routed request's sched span links a decision.
	var linked int
	for _, s := range spans {
		if s.Name == obs.SpanSched && s.Decision >= 0 {
			linked++
		}
	}
	if linked == 0 {
		t.Fatal("no sched spans link decision IDs")
	}
}

// TestViolationEpisodesAttributeDecisions induces a failure window (the
// failover scenario) and checks the run report's SLO section records
// violation episodes carrying the IDs of decisions active during them.
func TestViolationEpisodesAttributeDecisions(t *testing.T) {
	sys, ring := traceRun(t, 24*time.Second, 250, 30, 3)
	rep := sys.Report("tango", 0)
	if len(rep.SLO) == 0 {
		t.Fatal("report has no SLO section")
	}
	var episodes, withDecisions int
	for _, s := range rep.SLO {
		for _, ep := range s.Episodes {
			episodes++
			if ep.DecisionTotal > 0 && len(ep.Decisions) > 0 {
				withDecisions++
			}
			if ep.EndMs < ep.StartMs {
				t.Fatalf("episode ends before it starts: %+v", ep)
			}
		}
	}
	if episodes == 0 {
		t.Fatal("failure window induced no violation episodes")
	}
	if withDecisions == 0 {
		t.Fatal("no episode carries active decision IDs")
	}
	// The decision IDs must reference audited decisions.
	known := map[int64]bool{}
	for _, d := range ring.Decisions() {
		known[d.ID] = true
	}
	for _, s := range rep.SLO {
		for _, ep := range s.Episodes {
			for _, id := range ep.Decisions {
				if !known[id] {
					t.Fatalf("episode references unknown decision %d", id)
				}
			}
		}
	}
	if rep.Sink == nil || rep.Sink.Spans == 0 || rep.Sink.Decisions == 0 {
		t.Fatalf("sink stats incomplete: %+v", rep.Sink)
	}
}

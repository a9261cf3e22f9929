package experiments

import (
	"strings"
	"testing"
	"time"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{
		Seed: 1, Duration: 5 * time.Second, Drain: 3 * time.Second,
		LCRate: 25, BERate: 10, VirtualClusters: 2,
	}
}

func TestFig1Shape(t *testing.T) {
	r := Fig1(tiny())
	if r.ID != "fig1" || len(r.Tables) != 1 {
		t.Fatalf("result %+v", r)
	}
	if r.Values["mean_util"] <= 0 || r.Values["mean_util"] > 0.5 {
		t.Fatalf("LC-only utilization %.3f should be low but positive", r.Values["mean_util"])
	}
	if r.Values["mean_latency_ms"] <= 0 {
		t.Fatal("no latency measured")
	}
	if !strings.Contains(r.String(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestFig9HRMImprovesUtilization(t *testing.T) {
	r := Fig9(tiny())
	for _, p := range []string{"P1", "P2", "P3"} {
		hrmU := r.Values[p+"_K8s+HRM_util"]
		natU := r.Values[p+"_K8s-native_util"]
		if hrmU <= 0 || natU <= 0 {
			t.Fatalf("%s: missing utilizations (%v, %v)", p, hrmU, natU)
		}
		if hrmU < natU {
			t.Errorf("%s: HRM util %.3f below native %.3f", p, hrmU, natU)
		}
	}
}

func TestDVPAMicroRatio(t *testing.T) {
	r := DVPAMicro(tiny())
	if r.Values["dvpa_ms"] != 23 {
		t.Fatalf("dvpa latency = %v ms", r.Values["dvpa_ms"])
	}
	if r.Values["ratio"] < 50 {
		t.Fatalf("delete-and-rebuild only %vx slower; paper reports ~100x", r.Values["ratio"])
	}
}

func TestFig10ReassuranceHelps(t *testing.T) {
	r := Fig10(tiny())
	helped := 0
	for _, p := range []string{"P1", "P2", "P3"} {
		if r.Values[p+"_qos_with"] >= r.Values[p+"_qos_without"] {
			helped++
		}
	}
	if helped < 2 {
		t.Fatalf("re-assurance helped only %d/3 patterns: %v", helped, r.Values)
	}
}

func TestFig11abDSSLCWins(t *testing.T) {
	r := Fig11ab(tiny())
	dss := r.Values["DSS-LC_qos"]
	for _, other := range []string{"scoring", "load-greedy", "k8s-native"} {
		if dss+0.02 < r.Values[other+"_qos"] {
			t.Errorf("DSS-LC %.3f below %s %.3f", dss, other, r.Values[other+"_qos"])
		}
	}
}

func TestFig11cDCGBECompetitive(t *testing.T) {
	r := Fig11c(tiny())
	dcg := r.Values["DCG-BE_tput"]
	if dcg <= 0 {
		t.Fatal("DCG-BE throughput missing")
	}
	// The learned scheduler must at least beat blind round-robin.
	if dcg < r.Values["k8s-native_tput"]*0.9 {
		t.Errorf("DCG-BE %v below 0.9x k8s-native %v", dcg, r.Values["k8s-native_tput"])
	}
}

func TestFig11dAllEncodersRun(t *testing.T) {
	r := Fig11d(tiny())
	for _, enc := range []string{"GraphSAGE-A2C", "GCN-A2C", "GAT-A2C", "Native-A2C"} {
		if r.Values[enc] <= 0 {
			t.Errorf("%s produced no throughput", enc)
		}
	}
}

func TestFig12MatrixComplete(t *testing.T) {
	cfg := tiny()
	cfg.Duration = 4 * time.Second // 16 runs; keep small
	r := Fig12(cfg)
	for _, lc := range LCNames {
		for _, be := range BENames {
			if _, ok := r.Values[lc+"+"+be+"_qos"]; !ok {
				t.Fatalf("missing pairing %s+%s", lc, be)
			}
		}
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d", len(r.Tables))
	}
}

func TestFig13TangoLeads(t *testing.T) {
	r := Fig13(tiny())
	for _, sysName := range []string{"Tango", "CERES", "DSACO"} {
		if r.Values[sysName+"_qos"] <= 0 {
			t.Fatalf("%s missing QoS", sysName)
		}
	}
	if r.Values["Tango_tput"] < r.Values["CERES_tput"] {
		t.Errorf("Tango throughput %v below CERES %v", r.Values["Tango_tput"], r.Values["CERES_tput"])
	}
}

func TestDecisionTimeScalesSubQuadratically(t *testing.T) {
	r := DecisionTime(tiny(), func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	})
	d500 := r.Values["decision_ms_500"]
	d1000 := r.Values["decision_ms_1000"]
	if d500 <= 0 || d1000 <= 0 {
		t.Fatalf("decision times missing: %v %v", d500, d1000)
	}
	// Paper reports 1.99ms/3.98ms; allow a generous envelope but insist
	// on milliseconds, not seconds.
	if d1000 > 500 {
		t.Fatalf("1000-node decision took %.1f ms", d1000)
	}
}

func TestAblations(t *testing.T) {
	cfg := tiny()
	m := AblationMasking(cfg)
	if m.Values["tput_masking_on"] <= 0 {
		t.Fatal("masking ablation missing data")
	}
	rw := AblationReward(cfg)
	if rw.Values["tput_eta_1"] <= 0 || rw.Values["tput_eta_0"] <= 0 {
		t.Fatal("reward ablation missing data")
	}
	p := AblationPreemption(cfg)
	if p.Values["qos_preempt_on"] < p.Values["qos_preempt_off"] {
		t.Errorf("preemption off should not beat on: %v", p.Values)
	}
}

func TestMakeSchedPanicsOnUnknown(t *testing.T) {
	for _, fn := range []func(){
		func() { MakeLCSched("nope") },
		func() { MakeBESched("nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for unknown scheduler")
				}
			}()
			fn()
		}()
	}
}

func TestFailoverExperiment(t *testing.T) {
	r := Failover(tiny())
	if r.Values["qos_failures"] <= 0 || r.Values["qos_clean"] <= 0 {
		t.Fatalf("missing values: %v", r.Values)
	}
	// Failures may cost some QoS but must not collapse the system.
	if r.Values["qos_failures"] < 0.5 {
		t.Fatalf("failover QoS %.3f collapsed", r.Values["qos_failures"])
	}
}

func TestScalabilityMonotoneEnough(t *testing.T) {
	r := DecisionTime(tiny(), func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	})
	if r.Values["decision_ms_100"] <= 0 || r.Values["decision_ms_2000"] <= 0 {
		t.Fatalf("missing points: %v", r.Values)
	}
	if r.Values["decision_ms_2000"] > 1000 {
		t.Fatalf("2000-node decision took %.0f ms", r.Values["decision_ms_2000"])
	}
}

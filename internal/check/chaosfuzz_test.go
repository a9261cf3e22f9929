package check_test

import (
	"testing"

	"repro/internal/chaos"
)

// FuzzChaosProgram drives the survival oracle with fuzzer-chosen fault
// mixes and seeds: whatever program the fuzzer draws, the run must
// never lose or duplicate a request, and the engine and SLO self-checks
// must be green after every revive (`make fuzz-smoke` gives it a slice
// of the native fuzz budget).
func FuzzChaosProgram(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(99), uint8(3), uint8(0), uint8(2), uint8(0), uint8(1), uint8(0))
	f.Add(int64(-7), uint8(0), uint8(1), uint8(0), uint8(2), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, churn, kill, parts, storms, flash, stalls uint8) {
		rc := chaos.RandConfig{
			NodeChurn:   int(churn % 4),
			ClusterKill: int(kill % 2),
			Partitions:  int(parts % 3),
			RTTStorms:   int(storms % 3),
			FlashCrowds: int(flash % 2),
			Stalls:      int(stalls % 2),
		}
		r := chaosRun(t, seed, rc)
		if r.err != nil {
			t.Fatalf("chaos oracle violated (seed %d, cfg %+v): %v\nstats %+v", seed, rc, r.err, r.stats)
		}
	})
}

package engine

import (
	"strings"
	"testing"
	"time"
)

func TestSelfCheckCleanThroughLifecycle(t *testing.T) {
	s, e, _ := testEnv(nil, nil)
	// Mid-flight, mid-queue and drained states must all pass.
	for i := int64(1); i <= 12; i++ {
		e.Dispatch(e.NewRequest(mkReq(i, 3, 0)), 1)
	}
	checkAt := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond}
	for _, at := range checkAt {
		s.ScheduleAt(at, func() {
			if err := e.SelfCheck(); err != nil {
				t.Errorf("self-check at %v: %v", at, err)
			}
		})
	}
	s.Run()
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("self-check after drain: %v", err)
	}
}

func TestSelfCheckAfterFailure(t *testing.T) {
	s, e, _ := testEnv(nil, nil)
	for i := int64(1); i <= 6; i++ {
		e.Dispatch(e.NewRequest(mkReq(i, 3, 0)), 1)
	}
	s.RunUntil(s.Now() + 20*time.Millisecond)
	e.Node(1).Fail()
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("self-check after node failure: %v", err)
	}
	s.Run()
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("self-check after drain: %v", err)
	}
}

// corrupt the accounting directly and confirm the sweep notices. Each
// case gets a fresh engine with one running request.
func TestSelfCheckDetectsCorruption(t *testing.T) {
	setup := func() (*Engine, *Node) {
		s, e, _ := testEnv(nil, nil)
		e.Dispatch(e.NewRequest(mkReq(1, 1, 0)), 1)
		s.RunUntil(s.Now() + 50*time.Millisecond) // request is mid-execution
		n := e.Node(1)
		if len(n.running) != 1 {
			t.Fatalf("setup: running = %d, want 1", len(n.running))
		}
		return e, n
	}

	cases := []struct {
		name    string
		mutate  func(n *Node)
		wantSub string
	}{
		{"used drift", func(n *Node) { n.used.MilliCPU += 100 }, "sum of running"},
		{"usedLC drift", func(n *Node) { n.usedLC.MilliCPU -= 50 }, "sum of LC"},
		{"over capacity", func(n *Node) {
			for _, ru := range n.running {
				ru.alloc.MilliCPU = n.Capacity.MilliCPU + 1
				n.used = ru.alloc
				n.usedLC = ru.alloc
			}
		}, "exceeds capacity"},
		{"negative transit", func(n *Node) { n.inTransit.MilliCPU = -1 }, "in-transit"},
		{"down with work", func(n *Node) { n.down = true }, "down but holds"},
		{"zero-cpu alloc", func(n *Node) {
			for _, ru := range n.running {
				ru.alloc.MilliCPU = 0
			}
			n.used.MilliCPU = 0
			n.usedLC.MilliCPU = 0
		}, "invalid allocation"},
	}
	for _, tc := range cases {
		e, n := setup()
		tc.mutate(n)
		err := e.SelfCheck()
		if err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

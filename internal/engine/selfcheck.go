package engine

import (
	"fmt"

	"repro/internal/res"
	"repro/internal/trace"
)

// Internal-accounting invariants, swept by core.Verifier during
// verification runs. These live in the engine package because they
// validate unexported state (running allocations vs. the used/usedLC
// aggregates) that the public accessors deliberately do not expose.

// SelfCheck validates every node's internal accounting and returns the
// first violation found (nil when the engine is consistent).
func (e *Engine) SelfCheck() error {
	for _, n := range e.Nodes() {
		if err := n.SelfCheck(); err != nil {
			return err
		}
	}
	return nil
}

// SelfCheck validates the node's bookkeeping invariants:
//
//   - used equals the sum of running allocations, and usedLC the sum of
//     the LC subset (the incremental add/sub updates must never drift);
//   - no allocation is zero-CPU or negative, and each running entry is
//     keyed by its own request ID;
//   - used never exceeds Capacity (admission over-commit);
//   - in-transit demand is nonnegative;
//   - a failed node holds no running or queued work;
//   - queue membership matches request class.
func (n *Node) SelfCheck() error {
	var sum, sumLC res.Vector
	for id, ru := range n.running {
		if ru == nil || ru.req == nil {
			return fmt.Errorf("node %d: nil running entry %d", n.ID, id)
		}
		if ru.req.ID != id {
			return fmt.Errorf("node %d: running entry keyed %d holds request %d", n.ID, id, ru.req.ID)
		}
		if ru.alloc.MilliCPU <= 0 || !ru.alloc.Nonnegative() {
			return fmt.Errorf("node %d: request %d has invalid allocation %+v", n.ID, id, ru.alloc)
		}
		sum = sum.Add(ru.alloc)
		if ru.req.Class == trace.LC {
			sumLC = sumLC.Add(ru.alloc)
		}
	}
	if sum != n.used {
		return fmt.Errorf("node %d: used %+v != sum of running allocations %+v", n.ID, n.used, sum)
	}
	if sumLC != n.usedLC {
		return fmt.Errorf("node %d: usedLC %+v != sum of LC allocations %+v", n.ID, n.usedLC, sumLC)
	}
	if !n.Capacity.Fits(n.used) {
		return fmt.Errorf("node %d: used %+v exceeds capacity %+v", n.ID, n.used, n.Capacity)
	}
	if !n.inTransit.Nonnegative() {
		return fmt.Errorf("node %d: negative in-transit demand %+v", n.ID, n.inTransit)
	}
	if n.down && (len(n.running) > 0 || len(n.queueLC) > 0 || len(n.queueBE) > 0) {
		return fmt.Errorf("node %d: down but holds %d running / %d+%d queued",
			n.ID, len(n.running), len(n.queueLC), len(n.queueBE))
	}
	for _, r := range n.queueLC {
		if r.Class != trace.LC {
			return fmt.Errorf("node %d: request %d of class %v in LC queue", n.ID, r.ID, r.Class)
		}
	}
	for _, r := range n.queueBE {
		if r.Class != trace.BE {
			return fmt.Errorf("node %d: request %d of class %v in BE queue", n.ID, r.ID, r.Class)
		}
	}
	return nil
}

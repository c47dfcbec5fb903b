package sct

import (
	"slices"

	"github.com/psharp-go/psharp"
)

// FaultOptions configures PCT-style budgeted fault injection
// (Options.Faults, psharp-test -faults).
type FaultOptions struct {
	// Budget is the maximum number of faults injected per schedule: up to
	// Budget injection points per iteration, a repeated draw placing one
	// (see Horizon); 0 disables injection entirely.
	Budget int
	// Seed seeds the injector's own decision stream (fault placement,
	// kind, crash target). The stream is sharded across parallel workers
	// exactly like Random's, so fault-enabled runs stay reproducible and
	// population-equal under RunParallel.
	Seed uint64
	// Horizon is the fault-point count the budget is spread over,
	// PCT-style: each iteration places up to Budget injection points
	// uniformly in [0, Horizon) — Budget draws, a repeated draw placing one
	// — and fires a fault when an eligible query lands on one. Fault points
	// beyond the horizon never fault. 0 means DefaultFaultHorizon. A
	// schedule issues roughly two fault queries per scheduling point (one
	// per scheduler pass, one per machine send), so a horizon near the
	// typical schedule's query count concentrates the budget where the
	// schedule actually runs.
	Horizon int
	// Immune lists machine types faults must never touch (see
	// psharp.FaultConfig.Immune).
	Immune []string
	// Restart makes crash faults reboot the machine from its creation
	// payload with probability 1/2 (a strategy coin flip); when false
	// every crash is permanent.
	Restart bool
	// PreserveMailbox makes crash-with-restart faults keep the machine's
	// queued events across the reboot instead of clearing them.
	PreserveMailbox bool
}

// DefaultFaultHorizon is the fault-point horizon used when
// FaultOptions.Horizon is zero: wide enough to reach past the warm-up of
// the protocol workloads, narrow enough that a small budget still fires on
// typical schedules.
const DefaultFaultHorizon = 256

// FaultInjector composes fault injection with any inner exploration
// strategy: machine picks, booleans and integers are delegated to the inner
// strategy unchanged, while fault queries are answered from a per-iteration
// PCT-style plan — up to Budget injection points placed uniformly at random
// over the first Horizon fault queries of the schedule (Budget draws, a
// repeated draw placing one point). When an eligible query lands on an
// injection point the injector injects a random fault there: a crash of a
// random crashable machine at schedule points (restarting with probability
// 1/2 if Restart is set), or a uniformly chosen drop/duplicate/reorder at
// send points.
//
// The injector's own randomness is a seedStream of its own, kept
// separate from the inner strategy's so enabling faults does not perturb
// which interleavings the inner strategy would have explored. A worker's
// clone shards both streams.
type FaultInjector struct {
	inner Strategy

	budget   int
	horizon  int
	restart  bool
	preserve bool

	faults seedStream
	// points are this iteration's injection points, the fault-query indices
	// that inject: sorted and distinct, so no point outlasts the budget.
	// next indexes the first one no query has reached yet.
	points []int
	next   int
	idx    int // fault queries answered so far this iteration

	_ cacheLinePad
}

// NewFaultInjector wraps inner with fault injection per opts; opts.Budget
// must be positive. The engine calls this automatically when
// Options.Faults.Budget is set — constructing one directly is only needed
// to drive a psharp.TestHarness by hand.
func NewFaultInjector(inner Strategy, opts FaultOptions) *FaultInjector {
	if opts.Budget <= 0 {
		panic("sct: NewFaultInjector requires a positive FaultOptions.Budget")
	}
	return newFaultInjector(inner, opts, 0, 1)
}

func newFaultInjector(inner Strategy, opts FaultOptions, offset, stride int) *FaultInjector {
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = DefaultFaultHorizon
	}
	return &FaultInjector{
		inner:    inner,
		budget:   opts.Budget,
		horizon:  horizon,
		restart:  opts.Restart,
		preserve: opts.PreserveMailbox,
		faults:   seedStream{seed: opts.Seed}.shard(offset, stride),
		points:   make([]int, 0, opts.Budget),
	}
}

// CloneForWorker shards both the inner strategy and the injector's fault
// stream.
func (s *FaultInjector) CloneForWorker(worker, workers int) Strategy {
	return newFaultInjector(s.inner.CloneForWorker(worker, workers), FaultOptions{
		Budget: s.budget, Horizon: s.horizon, Seed: s.faults.seed,
		Restart: s.restart, PreserveMailbox: s.preserve,
	}, worker, workers)
}

// SaveCursor delegates to the inner strategy: the injector's own fault
// stream is reseeded per global iteration (see PrepareIteration) and so
// needs no cursor of its own — only the inner search state, if any, must
// survive a resume.
func (s *FaultInjector) SaveCursor() []byte { return s.inner.SaveCursor() }

// LoadCursor restores the inner strategy's journaled state.
func (s *FaultInjector) LoadCursor(cursor []byte) error { return s.inner.LoadCursor(cursor) }

// PrepareIteration prepares the inner strategy, then reseeds the fault
// stream for the global iteration and places the iteration's injection
// points, PCT-style.
func (s *FaultInjector) PrepareIteration(iter int) bool {
	if !s.inner.PrepareIteration(iter) {
		return false
	}
	// The salt keeps a FaultInjector sharing its seed with the inner Random
	// drawing an independent sequence.
	s.faults.rewind(iter, 0x6a09e667f3bcc909)
	s.points = s.points[:0]
	for i := 0; i < s.budget; i++ {
		s.points = append(s.points, s.faults.NextInt(s.horizon))
	}
	slices.Sort(s.points)
	s.points = slices.Compact(s.points)
	s.next, s.idx = 0, 0
	return true
}

// Decide answers fault queries from the iteration's injection plan and
// routes every other choice to the inner strategy.
func (s *FaultInjector) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind != psharp.ChoiceFault {
		s.inner.Decide(c, d)
		return
	}
	d.Kind = psharp.DecisionFault
	// Queries are numbered in order and points are sorted, so the next
	// point is the only one this query can land on.
	i := s.idx
	s.idx++
	if s.next == len(s.points) || s.points[s.next] != i {
		return
	}
	s.next++
	if !c.Eligible {
		return
	}
	f := &d.Fault
	switch c.Point {
	case psharp.FaultPointSend:
		kinds := [3]psharp.FaultKind{psharp.FaultDrop, psharp.FaultDuplicate, psharp.FaultReorder}
		f.Kind = kinds[s.faults.NextInt(3)]
	default: // FaultPointSchedule: crash a random crashable machine
		f.Kind = psharp.FaultCrash
		f.Machine = c.Crashable[s.faults.NextInt(len(c.Crashable))]
		if s.restart {
			f.Restart = s.faults.NextBool()
		}
		f.PreserveMailbox = f.Restart && s.preserve
	}
}

// NextMachine delegates to the inner strategy (legacy interface; the
// controller drives the injector through Decide).
func (s *FaultInjector) NextMachine(current psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	return s.inner.NextMachine(current, enabled)
}

// NextBool delegates to the inner strategy.
func (s *FaultInjector) NextBool() bool { return s.inner.NextBool() }

// NextInt delegates to the inner strategy.
func (s *FaultInjector) NextInt(n int) int { return s.inner.NextInt(n) }

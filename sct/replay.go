package sct

import (
	"fmt"
	"slices"

	"github.com/psharp-go/psharp"
)

// Replay re-executes a recorded schedule trace decision by decision,
// giving the deterministic bug reproduction the paper's bug-finding mode
// promises (Section 6.2). Replay runs a single iteration.
type Replay struct {
	trace *psharp.Trace
	pos   int
	_     cacheLinePad
}

// NewReplay returns a strategy that replays trace.
func NewReplay(trace *psharp.Trace) *Replay { return &Replay{trace: trace} }

// CloneForWorker returns an independent replayer of the same trace. Replay
// has a one-schedule search space, so parallel replay only re-confirms the
// same schedule on every worker; it exists so a Replay can stand in
// anywhere a Cloneable is required.
func (s *Replay) CloneForWorker(worker, workers int) Strategy {
	return NewReplay(s.trace)
}

// PrepareIteration permits exactly one iteration.
func (s *Replay) PrepareIteration(iter int) bool {
	s.pos = 0
	return iter == 0
}

// next returns the recorded decision at this position, which must be of
// the kind the program is asking for.
func (s *Replay) next(kind psharp.DecisionKind) *psharp.Decision {
	if s.pos >= len(s.trace.Decisions) {
		panic(fmt.Sprintf("sct: replay ran past the end of the trace (%d decisions)", len(s.trace.Decisions)))
	}
	d := &s.trace.Decisions[s.pos]
	if d.Kind != kind {
		panic(fmt.Sprintf("sct: replay divergence at decision %d: trace has kind %v, program asked for %v",
			s.pos, d.Kind, kind))
	}
	s.pos++
	return d
}

// NextMachine returns the machine recorded at this position.
func (s *Replay) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	d := s.next(psharp.DecisionSchedule)
	if !slices.Contains(enabled, d.Machine) {
		panic(fmt.Sprintf("sct: replay divergence at decision %d: %s is not enabled", s.pos-1, d.Machine))
	}
	return d.Machine
}

// NextBool returns the recorded boolean choice.
func (s *Replay) NextBool() bool { return s.next(psharp.DecisionBool).Bool }

// NextInt returns the recorded integer choice.
func (s *Replay) NextInt(n int) int {
	d := s.next(psharp.DecisionInt)
	if d.Int >= n {
		panic(fmt.Sprintf("sct: replay divergence at decision %d: recorded %d out of range %d", s.pos-1, d.Int, n))
	}
	return d.Int
}

// Decide implements psharp.DecisionStrategy, which is what lets Replay
// answer fault queries: a fault-era trace replays by returning each
// recorded psharp.FaultAction — crashes, drops, duplicates and the
// FaultNone declines — at exactly the query where it was recorded. The
// controller re-validates each action against the current state, so a
// divergent program still fails loudly instead of misinjecting.
func (s *Replay) Decide(c *psharp.Choice, d *psharp.Decision) {
	switch c.Kind {
	case psharp.ChoiceMachine:
		d.Kind, d.Machine = psharp.DecisionSchedule, s.NextMachine(c.Current, c.Enabled)
	case psharp.ChoiceBool:
		d.Kind, d.Bool = psharp.DecisionBool, s.NextBool()
	case psharp.ChoiceInt:
		d.Kind, d.Int = psharp.DecisionInt, s.NextInt(c.N)
	case psharp.ChoiceFault:
		d.Kind, d.Fault = psharp.DecisionFault, s.next(psharp.DecisionFault).Fault
	default:
		panic(fmt.Sprintf("sct: replay asked for unknown choice kind %d", c.Kind))
	}
}

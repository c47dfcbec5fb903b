package sct

import (
	"fmt"

	"github.com/psharp-go/psharp"
)

// Replay re-executes a recorded schedule trace decision by decision,
// giving the deterministic bug reproduction the paper's bug-finding mode
// promises (Section 6.2). Replay runs a single iteration, so its cursor is
// the iteration count alone (countCursor).
type Replay struct {
	countCursor
	trace *psharp.Trace
	pos   int
	_     cacheLinePad
}

// NewReplay returns a strategy that replays trace.
func NewReplay(trace *psharp.Trace) *Replay { return &Replay{trace: trace} }

// CloneForWorker returns an independent replayer of the same trace. Replay
// has a one-schedule search space, so parallel replay only re-confirms the
// same schedule on every worker.
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

// NextMachine returns the machine recorded at this position: the enabled
// machine with the recorded Seq, which must be of the type the trace names.
func (s *Replay) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	d := s.next(psharp.DecisionSchedule)
	return s.machine(d.Machine, enabled, "is not enabled")
}

// machine finds the machine r names in the trace among ms, or panics with
// the divergence: absent, it says why with missing; of another type than the
// trace names, it names both types.
func (s *Replay) machine(r psharp.MachineRef, ms []psharp.MachineID, missing string) psharp.MachineID {
	want := s.trace.ID(r)
	for _, m := range ms {
		if m.Seq != r.Seq {
			continue
		}
		if m.Type != want.Type {
			panic(fmt.Sprintf("sct: replay divergence at decision %d: the trace has %s where the program has %s", s.pos-1, want, m))
		}
		return m
	}
	panic(fmt.Sprintf("sct: replay divergence at decision %d: %s %s", s.pos-1, want, missing))
}

// NextBool returns the recorded boolean choice.
func (s *Replay) NextBool() bool { return s.next(psharp.DecisionBool).Bool }

// NextInt returns the recorded integer choice.
func (s *Replay) NextInt(n int) int {
	d := s.next(psharp.DecisionInt)
	if int(d.Int) >= n {
		panic(fmt.Sprintf("sct: replay divergence at decision %d: recorded %d out of range %d", s.pos-1, d.Int, n))
	}
	return int(d.Int)
}

// Decide implements psharp.DecisionStrategy, which is what lets Replay
// answer fault queries: a fault-era trace replays by returning each
// recorded psharp.FaultAction — crashes, drops, duplicates and the
// FaultNone declines — at exactly the query where it was recorded. A crash
// names its target by Seq, checked against the trace's type for it like a
// schedule record's; the controller re-validates each action against the
// current state, so a divergent program still fails loudly instead of
// misinjecting.
func (s *Replay) Decide(c *psharp.Choice, d *psharp.Decision) {
	switch c.Kind {
	case psharp.ChoiceMachine:
		d.Kind, d.Machine = psharp.DecisionSchedule, s.NextMachine(c.Current, c.Enabled).Ref()
	case psharp.ChoiceBool:
		d.Kind, d.Bool = psharp.DecisionBool, s.NextBool()
	case psharp.ChoiceInt:
		d.Kind, d.Int = psharp.DecisionInt, int32(s.NextInt(c.N))
	case psharp.ChoiceFault:
		f := s.next(psharp.DecisionFault).Fault
		if f.Kind == psharp.FaultCrash {
			s.machine(f.Machine, c.Crashable, "is not crashable")
		}
		d.Kind, d.Fault = psharp.DecisionFault, f
	default:
		panic(fmt.Sprintf("sct: replay asked for unknown choice kind %d", c.Kind))
	}
}

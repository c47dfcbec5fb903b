package psharp

import "fmt"

// Strategy decides scheduling and nondeterministic choices in bug-finding
// mode (paper Section 6.2). The serialized runtime calls NextMachine at each
// scheduling point (before send and create-machine operations, and when the
// current machine blocks), and NextBool/NextInt for each controlled
// nondeterministic choice. The enabled slice is sorted by creation order and
// is never empty; the returned machine must be one of its elements. The
// slice is a scratch buffer the runtime reuses across scheduling points:
// it is only valid for the duration of the call, so strategies that keep
// the enabled set must copy it.
//
// All calls within one iteration are serialized by the runtime, so Strategy
// implementations need no internal locking. Concrete strategies (random,
// DFS, PCT, delay-bounding, replay) live in the sct package.
//
// Strategy is the compatibility surface of the decision model below: the
// controller drives every strategy through DecisionStrategy, wrapping a
// plain Strategy in an adapter that maps the three methods onto the
// corresponding Choice kinds and answers fault queries with FaultNone. A
// strategy that wants to inject faults (or to see every nondeterminism
// point through one entry point) implements DecisionStrategy as well; the
// controller then calls Decide directly and the three methods are unused.
type Strategy interface {
	NextMachine(current MachineID, enabled []MachineID) MachineID
	NextBool() bool
	NextInt(n int) int
}

// ChoiceKind labels the nondeterminism points the controller can put to a
// strategy.
type ChoiceKind int

// Choice kinds.
const (
	// ChoiceMachine asks which enabled machine steps next.
	ChoiceMachine ChoiceKind = iota
	// ChoiceBool asks for a controlled boolean (Context.RandomBool).
	ChoiceBool
	// ChoiceInt asks for a controlled integer in [0, N) (Context.RandomInt).
	ChoiceInt
	// ChoiceFault asks whether to inject a failure action here. Fault
	// queries happen only when TestConfig.Faults is set: once per
	// scheduler pass (may a machine crash?) and once per machine send
	// (should this message be dropped, duplicated or reordered?).
	ChoiceFault
)

// FaultPoint says where in the schedule a ChoiceFault query arises.
type FaultPoint int

// Fault query points.
const (
	// FaultPointSchedule is the per-pass query issued by the scheduler
	// loop before it picks the next machine; the only fault expressible
	// here is FaultCrash against one of Choice.Crashable.
	FaultPointSchedule FaultPoint = iota
	// FaultPointSend is the per-send query issued while a machine-to-
	// machine message is in flight; the faults expressible here are
	// FaultDrop, FaultDuplicate and FaultReorder.
	FaultPointSend
)

// Choice describes one nondeterminism point. Only the fields of the active
// Kind are meaningful: the controller keeps one Choice for the whole harness
// and sets the active kind's fields in place before every query, so the
// others hold whatever an earlier query left there. The value, like the
// Enabled and Crashable slices it points to, is scratch that is valid for
// the duration of the Decide call; copy what you keep.
//
// Fault queries are issued unconditionally whenever faults are enabled —
// even when no fault is permitted at this point — so that the query
// sequence is a function of the schedule alone and recorded traces replay
// without knowing the original fault configuration. Ineligible queries
// (Eligible false: the send targets an immune machine, or no machine is
// crashable) must be answered FaultNone.
type Choice struct {
	Kind ChoiceKind

	// ChoiceMachine.
	Current MachineID
	Enabled []MachineID

	// ChoiceInt: the exclusive upper bound.
	N int

	// ChoiceFault.
	Point     FaultPoint
	Crashable []MachineID // FaultPointSchedule: machines a crash may target
	Target    MachineID   // FaultPointSend: the message's destination
	Eligible  bool        // false: the only valid answer is FaultNone
}

// DecisionStrategy is the generalized strategy interface: one entry point
// the controller calls at every nondeterminism point. Decide answers the
// query c by filling in d, which arrives zeroed: it sets d.Kind to match the
// query (ChoiceMachine → DecisionSchedule, ChoiceBool → DecisionBool,
// ChoiceInt → DecisionInt, ChoiceFault → DecisionFault) and the field of
// that kind; a mismatched or invalid decision ends the iteration with a bug
// attributed to the strategy. Like Strategy, all calls within one iteration
// are serialized.
//
// A machine is answered by reference: d.Machine (and a crash's
// d.Fault.Machine) is the MachineRef of an entry of c.Enabled (c.Crashable),
// whose Seq is all the controller checks; the trace names its type in Types.
//
// Both arguments are scratch, valid for the call only. d is the record the
// answer will occupy in the iteration's trace — the strategy writes it where
// it is kept, nothing is copied afterwards — but it is not part of the trace
// until the controller has validated it: an answer that is rejected, or a
// Decide that panics half way through writing it, leaves no record. Decide
// must not retain c or d, nor read d after returning.
type DecisionStrategy interface {
	Decide(c *Choice, d *Decision)
}

// legacyDecider adapts a plain Strategy to the decision API. It answers
// every fault query with FaultNone, so pre-fault strategies compose with
// fault-enabled configs (they just never inject anything). The controller
// embeds one by value to avoid a per-iteration allocation. Every sct.Strategy
// has a Decide of its own (it is part of that contract); the adapter serves
// the three-method strategies a TestConfig is handed directly.
//
// A Decision names a machine by Seq alone, so the adapter checks the type of
// a NextMachine pick itself: a pick whose type is not that of the enabled
// machine with its Seq is answered with Seq 0, which names no machine, and
// pick keeps what the strategy returned for the controller's report.
type legacyDecider struct {
	s    Strategy
	pick MachineID
}

func (a *legacyDecider) Decide(c *Choice, d *Decision) {
	switch c.Kind {
	case ChoiceMachine:
		a.pick = a.s.NextMachine(c.Current, c.Enabled)
		d.Kind, d.Machine = DecisionSchedule, a.pick.Ref()
		for _, e := range c.Enabled {
			if e.Seq == a.pick.Seq && e.Type != a.pick.Type {
				d.Machine = MachineRef{}
			}
		}
	case ChoiceBool:
		d.Kind, d.Bool = DecisionBool, a.s.NextBool()
	case ChoiceInt:
		v := a.s.NextInt(c.N)
		if v < 0 || v >= c.N {
			// The controller's own check, on the value before it is cut to
			// a Decision's int32.
			panic(assertFailed{msg: fmt.Sprintf("strategy returned %d for NextInt(%d)", v, c.N)})
		}
		d.Kind, d.Int = DecisionInt, int32(v)
	case ChoiceFault:
		d.Kind = DecisionFault
	default:
		panic(fmt.Sprintf("psharp: unknown choice kind %d", c.Kind))
	}
}

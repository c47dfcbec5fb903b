package psharp

import "fmt"

// BugKind classifies the failures the runtime can detect (paper Section 6.1:
// unhandled events, ambiguous handlers, uncaught exceptions; Section 6.2:
// assertion violations found in bug-finding mode; Section 7.2.2: livelocks
// detected by imposing a depth bound).
type BugKind int

// Bug kinds.
const (
	// BugAssertion is a violated Context.Assert.
	BugAssertion BugKind = iota
	// BugUnhandledEvent is an event dequeued in a state with no binding,
	// transition, defer or ignore for it.
	BugUnhandledEvent
	// BugPanic is an uncaught panic escaping a user action.
	BugPanic
	// BugDeadlock means some machine still has queued events but no machine
	// is enabled: every event left is deferred by its machine's state, so
	// none can ever be handled. Both runtimes report it — the testing one
	// when no machine is ready, production Wait at quiescence.
	BugDeadlock
	// BugLivelock is reported when the configured depth bound is exceeded
	// and the engine is asked to treat that as a liveness bug.
	BugLivelock
	// BugDataRace is reported by the happens-before detector (RD-on mode).
	BugDataRace
	// BugMonitor is a safety violation detected by a specification monitor:
	// an assertion failed (or a forbidden operation was attempted) inside a
	// monitor action while it processed an observed event.
	BugMonitor
	// BugLiveness is a liveness violation: the schedule returned to a global
	// state it was in around a fair cycle that kept a monitor hot (a fair
	// lasso: it can repeat forever), or the program quiesced with a monitor
	// still hot. Reported by the testing runtime for every monitor that
	// declares a hot state, under any strategy (see "Specifying correctness"
	// in the package docs).
	BugLiveness
)

func (k BugKind) String() string {
	switch k {
	case BugAssertion:
		return "assertion failure"
	case BugUnhandledEvent:
		return "unhandled event"
	case BugPanic:
		return "uncaught panic"
	case BugDeadlock:
		return "deadlock"
	case BugLivelock:
		return "livelock (depth bound exceeded)"
	case BugDataRace:
		return "data race"
	case BugMonitor:
		return "monitor violation"
	case BugLiveness:
		return "liveness violation"
	default:
		return fmt.Sprintf("bug(%d)", int(k))
	}
}

// Bug describes a failure detected during execution or testing.
type Bug struct {
	Kind    BugKind
	Machine MachineID
	// Monitor names the specification monitor that detected the failure
	// (BugMonitor and BugLiveness); empty for machine-detected bugs.
	Monitor string
	State   string
	Message string
}

// Error implements the error interface.
func (b *Bug) Error() string {
	if b.Monitor != "" {
		return fmt.Sprintf("psharp: %s by monitor %q in state %q: %s", b.Kind, b.Monitor, b.State, b.Message)
	}
	if b.Machine.IsNil() {
		return fmt.Sprintf("psharp: %s: %s", b.Kind, b.Message)
	}
	return fmt.Sprintf("psharp: %s in %s state %q: %s", b.Kind, b.Machine, b.State, b.Message)
}

// assertFailed is the panic payload used by Context.Assert; the machine
// dispatch loop recovers it and converts it into a *Bug.
type assertFailed struct{ msg string }

// abortSignal is the panic payload used to unwind parked machine coroutines
// when the testing controller tears an iteration down.
type abortSignal struct{}

// crashSignal is the panic payload used to unwind a parked machine coroutine
// when the controller executes a FaultCrash against it. Unlike abortSignal
// it affects one machine, not the iteration: the coroutine yields ykCrashed
// and (if the fault carries Restart) reboots from its creation payload the
// next time the machine is scheduled.
type crashSignal struct{}

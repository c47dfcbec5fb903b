// Package protocols contains the PSharpBench benchmark suite from the
// paper's evaluation (Section 7.2): P# implementations of well-known
// distributed algorithms, each in a correct variant (used to validate the
// runtime and the static analysis story) and a buggy variant (used for the
// Table 2 scheduler comparison). As in the paper, the programs are
// single-box, shared-state simulations of the distributed algorithms, with
// additional nondeterministic machines modeling the environment (failures,
// client choices, timers).
//
// The buggy variants follow the paper's description of its bugs: most are
// genuine state-machine mistakes — forgetting to handle (or defer) an event
// in some state — while BasicPaxos and MultiPaxos carry injected assertion
// bugs, German additionally has a livelock, and the ChainReplication bug
// hangs off the environment's random choices and therefore shows up in
// almost every schedule.
package protocols

import (
	"fmt"

	"github.com/psharp-go/psharp"
)

// Benchmark describes one entry of the suite.
type Benchmark struct {
	// Name is the benchmark's name as used in the paper's tables.
	Name string
	// Buggy selects the buggy variant.
	Buggy bool
	// Setup builds the program in a runtime (register types + create the
	// harness machines).
	Setup func(r *psharp.Runtime)
	// MaxSteps is the recommended per-iteration depth bound.
	MaxSteps int
	// Machines is the number of machine instances the program creates
	// (the paper's #T column counts threads per execution).
	Machines int
	// LivelockAsBug marks benchmarks whose bug is (partly) a livelock and
	// therefore needs the depth bound reported as a bug (German).
	LivelockAsBug bool
	// Monitors, if non-nil, registers the protocol's specification monitors
	// (safety invariants and hot/cold liveness properties) on the runtime.
	// Kept separate from Setup so the Table 2 measurements stay comparable
	// to the paper; attach them with SetupMonitored (psharp-test -monitors).
	Monitors func(r *psharp.Runtime)
	// FaultImmune lists machine types that model reliable infrastructure
	// (stable storage, the specification harness) and must never be faulted;
	// wire it into sct.FaultOptions.Immune when exploring with fault
	// injection. Empty for benchmarks not designed for fault injection.
	FaultImmune []string
}

// SetupMonitored returns Setup with the benchmark's specification monitors
// attached (identical to Setup when the benchmark declares none). Monitors
// make no scheduling decisions, so the explored schedules and their traces
// are unchanged by attaching them.
func (b Benchmark) SetupMonitored() func(r *psharp.Runtime) {
	if b.Monitors == nil {
		return b.Setup
	}
	setup, monitors := b.Setup, b.Monitors
	return func(r *psharp.Runtime) {
		setup(r)
		monitors(r)
	}
}

// ID returns a unique key such as "German(buggy)".
func (b Benchmark) ID() string {
	if b.Buggy {
		return b.Name + "(buggy)"
	}
	return b.Name
}

// All returns the full suite: for every protocol the correct variant and,
// where defined, the buggy one. Ordering matches the paper's Table 2. The
// liveness benchmarks are not included — their bugs are only observable
// through their liveness monitors, so they are not comparable to the Table 2
// safety measurements; see Liveness.
func All() []Benchmark {
	var out []Benchmark
	for _, name := range Names() {
		for _, buggy := range []bool{false, true} {
			b, ok := ByName(name, buggy)
			if !ok {
				continue
			}
			out = append(out, b)
		}
	}
	return out
}

// Names lists the protocol names in Table 2 order.
func Names() []string {
	return []string{
		"BoundedAsync", "German", "BasicPaxos", "TwoPhaseCommit",
		"Chord", "MultiPaxos", "Raft", "ChainReplication", "AsyncSystemSim",
	}
}

// Liveness returns the liveness benchmark suite: protocols whose seeded
// bugs violate a monitor-expressed "eventually" property rather than a
// safety one. They run with the benchmark's Monitors attached
// (SetupMonitored), under any strategy: the testing controller checks a
// monitor with a hot state by itself (fair lassos), and a run without the
// monitors simply sees nothing.
func Liveness() []Benchmark {
	return []Benchmark{
		fairResponderBenchmark(false),
		fairResponderBenchmark(true),
	}
}

// FaultTolerant returns the crash-tolerant benchmark suite: protocols
// written to survive machine crashes, restarts and message faults, whose
// buggy variants hide bugs that only a fault can expose. They run with
// their Monitors attached (SetupMonitored) and fault injection enabled
// (sct.FaultOptions with the benchmark's FaultImmune list) — a fault-free
// run explores only schedules where the bug cannot manifest.
func FaultTolerant() []Benchmark {
	return []Benchmark{
		twoPhaseCommitFTBenchmark(false),
		twoPhaseCommitFTBenchmark(true),
	}
}

// ByName returns the benchmark with the given name and variant.
func ByName(name string, buggy bool) (Benchmark, bool) {
	switch name {
	case "BoundedAsync":
		return boundedAsyncBenchmark(buggy), true
	case "German":
		return germanBenchmark(buggy), true
	case "BasicPaxos":
		return basicPaxosBenchmark(buggy), true
	case "TwoPhaseCommit":
		return twoPhaseCommitBenchmark(buggy), true
	case "Chord":
		return chordBenchmark(buggy), true
	case "MultiPaxos":
		return multiPaxosBenchmark(buggy), true
	case "Raft":
		return raftBenchmark(buggy), true
	case "ChainReplication":
		return chainReplicationBenchmark(buggy), true
	case "AsyncSystemSim":
		if buggy {
			return Benchmark{}, false // analysis-only case study; no seeded bug
		}
		return asyncSystemBenchmark(), true
	case "FairResponder":
		return fairResponderBenchmark(buggy), true
	case "TwoPhaseCommitFT":
		return twoPhaseCommitFTBenchmark(buggy), true
	default:
		return Benchmark{}, false
	}
}

// MustByName is ByName that panics when the benchmark does not exist.
func MustByName(name string, buggy bool) Benchmark {
	b, ok := ByName(name, buggy)
	if !ok {
		panic(fmt.Sprintf("protocols: no benchmark %q (buggy=%v)", name, buggy))
	}
	return b
}

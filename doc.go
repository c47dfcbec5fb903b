// Package psharp is a Go implementation of the P# programming model from
// "Asynchronous Programming, Analysis and Testing with State Machines"
// (Deligiannis et al., PLDI 2015).
//
// A P# program is a collection of state machines that communicate solely by
// sending and receiving events. Each machine owns private data and a set of
// states; a state registers transitions (event -> next state) and action
// bindings (event -> handler). Actions are ordinary sequential Go functions:
// they must not spawn goroutines or use synchronization; the only way to
// exploit concurrency is to create more machines.
//
// Two execution modes share the same machine code:
//
//   - The production runtime (NewRuntime) runs machines concurrently, a
//     machine's handlers one at a time; a machine is on a goroutine only
//     while its event queue has work (see "Production runtime" below).
//   - The bug-finding runtime (RunTest) serializes execution under a
//     pluggable scheduling Strategy, with scheduling points before send and
//     create-machine operations only (the paper's partial-order reduction),
//     records a schedule trace, and supports deterministic replay. The sct
//     package provides random and PCT strategies, depth-first
//     search plain (DFS), reduced (DPOR) and delay-bounded, and replay,
//     plus an iteration engine; sct.RunParallel fans exploration out over
//     a worker pool running a sharded strategy or a heterogeneous
//     portfolio, with deterministically sharded seeds, merged reports and
//     distinct-schedule accounting (see the sct package docs and
//     examples/parallel).
//
// The two share the machine: its step, its handler path, its Context. A
// send, a create, a draw and a monitor observation have one body per mode
// (Runtime.enqueue, create and observe; controller.send, create and
// observe), picked once per operation by a dispatcher that tests the mode.
//
// # Reproducing the paper's Table 1
//
// The static-analysis half of the evaluation lives in the lang, analysis,
// interp and internal/benchsrc packages: internal/benchsrc embeds the
// core-language sources of the 13 Table 1 benchmarks (plus the 8 racy
// PSharpBench variants), calibrated so the ownership analysis reproduces
// the paper's false-positive counts exactly — the staged-send pattern that
// only xSA discharges, and the shared read-only payloads that survive xSA
// and need the Section 8 read-only extension. Render the table with
//
//	go run ./cmd/psharp-bench -table 1
//
// and gate on it with -check, which exits non-zero on any drift from the
// counts encoded in internal/benchsrc (CI runs this as the "Table 1
// gate"). The same corpus round-trips through the interp package, whose
// happens-before detector confirms dynamically that the non-racy variants
// are race-free and the racy ones race. See internal/benchsrc/README.md.
//
// Exploration over the .psl corpus is interp-bound, so the interp package
// ships two evaluators with identical observable semantics: a reference
// tree-walker and the default bytecode engine, which compiles every
// machine, monitor, and method body once per loaded Program into
// stack-machine bytecode with interned event/field/state/method indices,
// fuses common instruction pairs into superinstructions, caches the
// compiled form on the Program, and pools VM state — a steady-state
// schedule does zero allocations and runs roughly an order of magnitude
// more schedules per second than the walker (bash bench/run.sh reports
// both, as interp.vm_ns_per_step and interp.walk_ns_per_step; the
// differential harness holds the two engines outcome-identical on every
// corpus benchmark). Run the VM from the CLI (in Go,
// interp.Options.Engine selects the walker):
//
//	psharp-test -psl Raft -racy -iterations 200
//
// and inspect the compiled form with interp.Disassemble (or -disasm):
//
//	prog := lang.MustParse(src)
//	if err := lang.Check(prog); err != nil {
//		log.Fatal(err)
//	}
//	fmt.Print(interp.Disassemble(prog))
//	// machine driver:
//	//   state Boot (start):
//	//   func driver.Boot.entry (params=0 locals=4):
//	//       0  decl2       0 (m) zero=machine, 1 (w1) zero=machine
//	//       1  decl2       2 (w2) zero=machine, 3 (o) zero=machine
//	//       2  createstore 1 (master) -> 0 (m)
//	//       ...
//
// (the listing above is the head of the SOTER Pi benchmark's driver; the
// fused forms — decl2, createstore, and friends — are the superinstruction
// pass at work).
//
// # Specifying correctness
//
// Beyond machine-local assertions (Context.Assert), correctness is
// specified with monitors — the paper's observer machines. A monitor is a
// machine that observes events instead of receiving them: it is declared
// like a machine (states, event handlers, transitions, either declaration
// form), registered with Runtime.RegisterMonitor, and runs its actions
// through the machines' own handler path and Context — but it has no
// mailbox and is never scheduled. From its registration on, every sent and
// raised event is handed to it synchronously, at the send or raise itself,
// and the monitor handles the events its current state binds, skipping the
// rest. Monitors are passive: actions may Assert, Goto, Raise and Logf but
// must not Send, CreateMachine, Halt, or draw nondeterminism — so attaching
// a monitor never changes the program's schedules, and a monitored run
// explores byte-identical traces.
//
// Two specification classes follow:
//
//   - Global safety invariants: the monitor accumulates observations across
//     machines and asserts over them (e.g. two-phase-commit atomicity over
//     every participant's outcome, Raft election safety over every leader
//     announcement). A failed monitor assertion ends the iteration with
//     BugMonitor, attributed to the monitor, with the usual replayable
//     trace.
//
//   - Liveness ("something eventually happens"): monitor states carry
//     hot/cold annotations (StateBuilder.Hot, StateBuilder.Cold). A hot
//     state is a pending obligation. A testing runtime checks every
//     registered monitor that declares a hot state, with no setting: while
//     one is hot, each scheduling point hashes the global state (as the
//     state cache does) and looks it up among the points of the iteration.
//     A repeat closes a cycle, and the cycle is a fair lasso — an infinite
//     execution that never discharges the obligation — when the monitor
//     was hot all around it, it scheduled every machine enabled at its end
//     (only a machine's own step or a crash disables one, so that is strong
//     fairness) and it injected no fault (a fault budget is finite). A fair
//     lasso, or a program that quiesces with a monitor still hot, is
//     BugLiveness, naming the monitor, its hot state and the cycle; the
//     verdict is a function of the schedule, so it replays like any other
//     bug (Mudduluru, Deligiannis, Desai, Lal and Qadeer, "Lasso detection
//     using partial-state caching", FMCAD 2017).
//
// Liveness caveats: a reported lasso is a violation under every strategy —
// a cycle that starves a machine is not reported, so no fair scheduler is
// needed — but each strategy still has to reach the bug. Random scheduling
// finds FairResponder's in its first schedules; DFS and DPOR find it with
// the state cache, which prunes the subtrees below the 600-step schedules'
// late decisions, and miss it without (the lost request needs an early
// one). Two states are one when their 64-bit hashes are, unchecked, as for
// the state cache. A lasso needs a state that recurs: a violation in a
// program whose state keeps growing while the monitor is hot (a counter, a
// lengthening queue, a term or a ballot) is reported only if the program
// quiesces, and otherwise missed — the temperature threshold this check
// replaced caught it, at the price of a tuned setting, a fair strategy and
// false reports when set short. A monitored program is checkpointed like
// any other, and a func, chan or unsafe.Pointer met while a monitor is hot
// stops only the search for lassos, which the result's LivenessUnchecked
// reports (psharp-test prints a note). The production runtime dispatches
// monitors too (safety assertions fire as in testing, serialized behind an
// internal mutex), but checks no liveness: it is a bug-finding-mode feature.
//
// # Injecting faults
//
// Crashes and message faults are scheduler decisions, not environment
// noise. With TestConfig.Faults set, the controller asks the strategy a
// fault question at every nondeterminism point that can fault: once per
// scheduler pass ("crash a machine now?" — ChoiceFault at
// FaultPointSchedule, listing the crashable machines) and once per machine
// send ("fault this delivery?" — FaultPointSend, naming the target). The
// strategy answers with a FaultAction: FaultNone (decline), FaultCrash
// with an optional restart, or FaultDrop, FaultDuplicate, FaultReorder for
// the message in flight. Strategies that implement only the legacy
// three-method interface decline every fault automatically; sct's
// FaultInjector wraps any inner strategy with a PCT-style budgeted
// injection plan (sct.FaultOptions).
//
// Every query — fault or not — reaches the strategy through one entry
// point, DecisionStrategy.Decide(*Choice, *Decision). Both arguments are
// scratch that is valid for the call: the Choice is one record the
// controller keeps per harness and fills in place (only the fields of its
// Kind mean anything), and the Decision is the record the answer will
// occupy in the iteration's trace, handed over zeroed. The strategy writes
// its answer there and nowhere else; the controller validates it where it
// lies and only then counts it into the trace, so a rejected answer, or a
// Decide that panics half way, leaves no record. Every strategy of the sct
// package implements Decide; any other three-method Strategy is driven
// through an adapter that does exactly that with its return values.
//
// A record is 32 bytes: a kind, the value of that kind — a boolean, an int32
// (RandomInt's n is at most math.MaxInt32 under the testing runtime), a
// FaultAction — and a machine named by its creation index alone
// (MachineRef, from MachineID.Ref). The type names the index implies are kept
// once per trace, in Trace.Types, which a harness fills from the iteration's
// machines as the iteration ends and shares with every clone of the trace;
// Encode and DecodeTrace spell them out, so the text format did not change
// when the record lost its names. The controller checks a pick or a crash
// target by Seq; the adapter checks a three-method strategy's MachineID
// against the enabled machine with its Seq, and a replay checks each record
// against the type its trace names.
//
// A crash halts the machine at its next scheduling point: its queue is
// cleared (unless the action sets PreserveMailbox), monitors observe a
// MachineCrashed event, and — if the action requests a restart — the same
// machine identity reboots through a fresh logic value from its registered
// factory, re-entering its initial state with its original creation
// payload, after which monitors observe MachineRestarted. Volatile state
// dies with the crash; anything that must survive belongs in another
// machine (model stable storage as a machine and list its type in
// FaultConfig.Immune, which exempts it from crashes and its inbound sends
// from message faults).
//
// Every fault query is answered and recorded in the trace — including the
// declines — so the query sequence is a function of the schedule alone and
// a fault-era trace replays byte-deterministically: sct.ReplayTrace (and
// psharp-test -replay) re-applies each recorded FaultAction at exactly the
// query that produced it, no fault configuration required. The trace text
// format is versioned (TraceFormatVersion); traces recorded before fault
// injection existed lack the header and are rejected loudly rather than
// replayed wrong.
//
// # Partial-order reduction and state caching
//
// Beyond placing scheduling points only before sends and creates (the
// paper's static reduction, above), the testing stack prunes equivalent
// schedules dynamically. sct has one depth-first search of the schedule
// tree; sct.NewDFS is that search branching on every enabled machine, and
// sct.NewDPOR is the same search with dynamic partial-order reduction and
// sleep sets: the controller reports every executed step's footprint —
// the machine that ran, the mailbox it targeted, the machine it created —
// through the StepObserver hook, and the search backtracks only where two
// steps of different machines actually conflict, collapsing interleavings
// of independent operations into one representative while remaining as
// exhaustive as DFS. TestConfig.StateCache (sct Options.StateCache, or
// psharp-test -state-cache) adds a hashed global-state cache: the
// controller maintains an incremental fingerprint of the global state —
// machine fields, control states, queue contents and monitor states — and
// cuts an iteration short when it reaches
// a state an earlier schedule already covered no deeper. Both hooks are
// off by default and cost nothing when off — the controller skips the
// footprint and hashing work entirely, and the allocation caps above hold
// either way. Pruned attempts are reported separately (PrunedIterations,
// DistinctStates) and never inflate schedule-throughput or
// distinct-schedule counts.
//
// What the hash covers is decided by the types of the values it walks:
// each machine-logic, monitor-logic and event-payload type is compiled, on
// first sight, into a state plan (stateplan.go) — a flat list of (offset,
// kind) steps over its memory — and the hash is one interpreter of it.
// Slices are hashed whole and pointers followed to any depth; an object
// reached twice within one machine's state is hashed once and referred back
// to, so two states that differ only in what aliases what are two states. A
// non-nil func, chan or unsafe.Pointer in a machine's state has no hash:
// with a cache attached the iteration ends at its first scheduling point
// with a *StateError in IterationResult.Err (sct's Report.Err; psharp-test
// exits 2) naming the machine type and the field, instead of pruning on a
// hash that ignored it. Nil ones are ordinary values. A logic that is itself
// a func is refused the same way, whatever interfaces it implements: a
// closure-form (MachineFunc) machine keeps its state in variables its
// actions captured, which no hash can see, and a cache blind to it prunes
// schedules that differ only there (sct's TestStateCacheRefusesClosureLogic
// has the program: DPOR finds its bug, DPOR with a blind cache exhausted
// without it).
//
// What a depth-first attempt costs: the paper's tester is stateless, so
// attempt n+1 would re-execute the decision prefix it shares with attempt n
// before it reaches anything new — well over nine points in ten on the
// Table 2 protocols. The second interpreter of the state plans is a deep
// copy, and with it the harness checkpoints (checkpoint.go): a snapshot of
// the program at a scheduling point is an image of every logic value,
// mailbox and monitor — its objects, the pointers between them and the
// values that stand on them — made in one walk so that what machines and
// queued events share stays shared, and an attempt whose strategy promises
// to repeat a prefix of the last one (PrefixResumer: sct's DFS, DPOR and
// DelayBounding) starts from the deepest snapshot inside that prefix
// instead of from setup. Restoring one walks nothing: it is a
// relocation of the image, each object allocated with its own type and
// copied whole, its pointers patched to the new objects, its maps rebuilt —
// of the part of it the last attempt changed: a machine that attempt did not
// change past the snapshot's position, and that shares no memory with one
// that is rebuilt, is kept as it left it, its teardown deferred to the
// restore, which neither relocates, unwinds, recycles nor catches it up (a
// handler that is not deterministic goes undetected in a kept machine). A
// machine parked in the middle of a handler is a coroutine stack, which
// cannot be copied; the snapshot holds it as it began its handler chain —
// its logic and its event as of the dequeue (or birth), copied there — with
// the chain's log of what it did since: its sends, creates and draws and the
// yield points it passed, the very log the state hash reads its mid-handler
// position from. A restore re-runs the chain on the machine's own coroutine,
// its sends, creates and monitor notifications suppressed, and matches each
// of them, each draw and each yield point against the log — creates and
// draws answered from it — until it parks at the yield point the log ends
// with, where it was. That relies on what the state cache and replay rely
// on, now in the middle of a handler: a handler is a deterministic function
// of its machine's state, its event and its controlled choices. A handler
// that reads what another machine writes outside events — a package
// variable, an object a setup closure captured — breaks it, and so does one
// that touches an object after sending it away, which the paper's ownership
// rule forbids. Nothing a caller can count changes: the restored points are
// points of the schedule in SchedulingPoints, ReplayedPoints,
// ContinuedPoints, the Trace and every report, and a search with checkpoints
// is attempt for attempt the search without
// (TestStateCacheReplaySkipEquivalence holds it to that on the whole corpus).
// IterationResult.RestoredPoints (sct's Report.RestoredPoints and
// Shares().RestoredShare) says how much was not executed; Runtime.Metrics and
// coverage hit counts count what was. Snapshots are taken without a knob — at
// most one an attempt, at the deepest scheduling point of the prefix the
// last few attempts all shared — and a harness holds at most eight. A
// machine whose handler start shares memory with the rest of the snapshot
// cannot be rebuilt apart from it: snapshots then sit where it is not
// parked. No checkpoint is ever taken, and every attempt runs
// from setup exactly as before, when the strategy is not a PrefixResumer (or
// is wrapped in one that is not), under Faults, RaceDetect or an execution
// log, for a program with a closure-form machine, for state
// holding a live func, chan or unsafe.Pointer or a pointer into the middle
// of another object, and on the first Run after the configuration changed.
// The program must keep its state where the tester can see it — in machine
// and monitor logic values and in events: what a handler does to anything
// else (a variable its setup closure captured, a file) is not repeated for
// the points an attempt restores. And since such an attempt does not run
// setup, a machine it creates comes from the factory an earlier setup call
// registered: factories must be pure, and an object machines share and
// change must travel in creation payloads and events, not in a closure of
// setup's (NewTestHarness spells the rule out).
//
// With a cache, what is left of the shared prefix is not hashed either. The
// program is deterministic in its decisions (replay rests on the same
// fact), so on the prefix the strategy promises to repeat the states are the
// ones attempt n already showed the cache, and the controller neither hashes
// nor consults it there: the promise the checkpoints start from
// (PrefixResumer.RepeatedPrefix) is the one record of that prefix, and no
// per-point record is kept. A strategy that makes no such promise has its
// cache consulted at every point. An attempt therefore
// costs a relocation of the part of the program's image the last attempt
// changed (an allocation and a typed copy per object it holds, a store per
// pointer between them), the re-execution
// of its prefix from the checkpoint on, one hash of every machine it rebuilt
// or changed at the first point that differs, and incremental hashing (the machines a
// step touched) of its new suffix; a handler's mid-handler position is its
// chain log, folded into one word at the end of each of its steps (and
// dropped once folded, unless a snapshot records the chain), so a handler
// that finishes without a state hash being taken pays that fold, not a walk
// of its event.
// IterationResult.ReplayedPoints (sct's Report.ReplayedPoints and
// Shares().ReplayedShare) says how much of a campaign repeated earlier decisions,
// restored or re-executed. See the StateCache type for the contract this
// puts on a cache, and the sct package's "Partial-order reduction and state
// caching" section for soundness scope (depth-first strategies only, no
// fault injection) and the measured reductions.
//
// # Declaring machines
//
// A machine or monitor type declares its states, transitions and action
// bindings on a Schema builder, once per type. This matches the paper's
// design, where the transition and action-binding tables of Figure 1 are
// properties of the machine class, compiled once. The type embeds
// StaticBase and implements StaticMachine: ConfigureType runs at Register
// (or RegisterMonitor) on a probe from the factory, once per process for
// each registered name and probe value, and the compiled schema is frozen
// and shared by every instance on every Runtime. The machine's state is the
// fields of the value its factory returns, where the state cache hashes it
// and a checkpoint copies it. Actions are bound with OnEntryM, OnExitM and
// OnEventDoM and receive the machine instance as their first parameter —
// assert it to the concrete type — instead of closing over it:
//
//	type Ping struct{ psharp.EventBase }
//
//	type Server struct {
//		psharp.StaticBase
//		count int
//	}
//
//	func (*Server) ConfigureType(sc *psharp.Schema) {
//		sc.Start("Init").
//			OnEventDoM(&Ping{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
//				m.(*Server).count++
//			})
//	}
//
// ConfigureType must be a function of the probe's value. It may read fields
// the factory sets identically on every instance — registration parameters,
// like a buggy-variant flag that adds or removes bindings — but its action
// closures must not capture the receiver, which is a discarded probe, and it
// must read nothing the probe does not hold. Register looks the schema up
// in a process-wide table by name, probe type and probe value (compared with
// reflect.DeepEqual): the buggy and the correct variant of a protocol are
// two entries under one name, and a campaign, its replay and every later
// harness of the same program compile nothing. A probe holding a non-nil
// func or chan equals nothing, so its type compiles once per Runtime.
// Per-instance initialization (seeding a map, say) belongs in the
// registered factory. A nil action, a duplicate entry or exit action and an
// event bound twice in one state are schema errors, reported by Register.
//
// The closure form — MachineFunc, whose function declares the schema per
// instance with OnEventDo handlers closing over variables the factory
// allocated — is kept for machines only, and only until the repository's
// benchmark, its last user, declares its machines statically (ROADMAP item
// 1(e)). OnEventDo adapts its handler to the one action signature when the
// binding is made. Each instance's schema is rebuilt and revalidated on every
// create, which on the exploration hot path is the dominant allocation cost
// (see below); the state cache refuses it and a checkpoint never holds it,
// its state being out of their sight. RegisterMonitor refuses it with an
// error naming the monitor. Porting a machine is mechanical: embed
// StaticBase, move the captured variables into fields, declare the schema in
// ConfigureType with the M builders, and open each handler with
// `s := m.(*YourType)`; harness_test.go's equivalence test replays identical
// traces through both forms.
//
// # Performance model
//
// Bug-finding throughput has two terms: what a scheduling point costs and
// how much each iteration rebuilds.
//
// A scheduling point is a decision, and a coroutine switch only if the
// decision needs one. Every machine of the testing runtime is a coroutine
// (iter.Pull over the instance's run loop) of the goroutine that called
// Run, so exactly one stack runs at a time and a switch hands the thread
// over without the Go scheduler, a run queue or a wake-up. The scheduler
// pass — interrupt poll, quiescence, deadlock and liveness checks, depth
// bound, state-cache check, fault query, the strategy's Decide, which
// writes its answer straight into the trace's next record — is one function
// (controller.pass) that runs on whichever stack reaches the point. A
// machine at a send or create closes its own step and runs the pass
// itself; if the strategy keeps it running it returns into its handler,
// and only when another machine is chosen, the iteration ends
// or a crash must be applied does it park and leave the outcome to the
// controller's loop, which then merely switches. Under random scheduling
// 13–23 % of the points of a Table 2 protocol keep the yielding machine
// (94 % of German's, whose livelock is one machine talking to itself; a
// third of all points of the benchmark's table2_random round) and 25–60 %
// under depth-first search, which prefers the first enabled machine:
// IterationResult.ContinuedPoints and sct's Report.Shares().ContinuedShare count
// them exactly. Those points cost no switch at all; the others cost
// two (machine → loop → next machine). And because the switches
// already order everything, a testing Runtime takes none of the locks the
// production runtime needs: no queue mutex, no runtime mutex, no condition
// variable on the send, dequeue, create and crash paths, which are the
// controller's own (a halt, rare and shared by both runtimes, takes its
// mailbox's lock uncontended) — the previous controller paid five
// uncontended lock pairs and a Signal per send/dequeue. (Hence: touching a testing Runtime from a second goroutine
// is a data race, not merely nondeterminism.) bench's traced table2_random
// pass (bash bench/run.sh -workload table2_random -trace 1) reads the bare
// hand-off, psharp.handoff_ns_per_sp, at ≈ 185–205 ns of a scheduling point
// on the Table 2 protocols, psharp.step_ns_per_sp, at ≈ 285–320 ns (go1.24,
// 2 vCPU); the coroutine controller before this shape read ≈ 300 of ≈ 570,
// the channel handshake before that ≈ 620 of ≈ 1 120. The recorded-trace
// oracle in controller_golden_test.go holds all three to byte-identical
// schedules, bugs and fault statistics.
//
// The step both runtimes share (machineInstance.step) looks an event's
// binding up once: the mailbox scan compares the event's type word with
// each binding's of the current state, one pointer compare per binding
// (stateSpec.find), and the binding it stops at is the one dispatched —
// no second lookup, no reflect.Type comparison, no copy of the mailbox
// slot. A goto, bound (OnEventGoto) or requested (Context.Goto), enters its
// target state by pointer, resolved when the schema was compiled or when
// Goto checked the name.
//
// RunTest is a one-shot convenience: every call constructs a serialized
// runtime, a controller and a trace, runs one schedule, and throws them
// away. TestHarness is the steady-state entry point: it recycles the
// Runtime (registry map cleared in place), machine instances with their
// Contexts, event-queue slices and coroutines (parked between iterations,
// so a recycled machine costs no coroutine construction), the
// controller's incrementally maintained ready list and the scratch slice
// handed to the strategy, and the trace buffer (reset with
// retained capacity — clone a Trace you keep past the next Run or Close;
// RunTest returns a clone). A closed harness donates its idle instances to
// one process-wide reserve (capped at 256; the overflow's coroutines are
// retired), and its trace buffer to another (8 buffers of at most 16 384
// decisions); a harness whose own freelist is empty draws from the first
// before building anything and a new harness starts with a buffer from
// the second, so even short-lived harnesses — RunTest, a trace replay, a
// hunt that finds its bug in three schedules — rarely pay the 13
// allocations a fresh coroutine costs or regrow a trace by doubling. A
// steady-state harness is served by its own freelist and never touches
// the reserves' locks. Teardown is as cheap as the iteration was short: a
// machine blocked between handlers when the iteration ends returns out of
// its run loop, and only one parked inside a handler is unwound by panic.
// The testing runtime also counts without atomics: the controller's send,
// create and observe count into plain words of its own, which
// TestHarness.Run adds to the runtime's RuntimeMetrics atomics once per
// iteration (see Runtime.Metrics); only production's bodies touch the
// atomics, and a production send counts into words of the receiving
// machine's (see the production runtime below).
//
// Machine schemas follow the compile-once discipline: a static type's
// schema is compiled once per process for each probe value and every
// create on every Runtime reuses the frozen form, and the harness keeps its
// runtime's name→schema bindings across recycled iterations, so a
// static-form program pays zero schema allocations from iteration 2 on and
// a new harness — a campaign's, a replay's — pays one probe and one table
// lookup per type instead of a compile (compiles would be a third of the
// allocations of a hunt that finds its bug in a few schedules). Monitors
// ride the same machinery: a monitor's schema comes from the same table, a
// monitor's instance and its Context are recycled with the machines'
// across iterations, and observation itself is allocation-free
// — attaching a monitor adds only its factory's allocations per iteration
// (at most 5 on the protocol workloads, enforced by the monitor allocation
// caps).
// (The interp package applies the same discipline to .psl programs: one
// schema per machine declaration per loaded Program.) What still rebuilds
// each iteration is per-machine user state — setup runs every time and
// factories produce fresh logic values — plus, for closure-form machines
// only, the per-instance schema. Steady-state allocations per iteration
// are therefore proportional to the number of machines created, not to
// schedule length: the marginal cost of an extra scheduling point is zero
// allocations (enforced by the allocation regression tests, including a
// protocol-class cap that a returning schema rebuild cannot pass). The sct
// engine holds one harness per exploration worker; bash bench/run.sh
// measures schedules/sec and allocs/iteration on the BENCHMARK.json
// workloads.
//
// # Production runtime
//
// The production runtime runs the same step — dequeue one event, run its
// handler to completion — but gives no machine a thread (the paper's
// Section 6.1 runtime schedules a machine's handler loop as a pool task
// when an event arrives at an idle machine, and ends it when its queue is
// empty; so does this one). A machine has an active bit under its mailbox
// lock. A send that finds it clear sets it and activates the machine: some
// goroutine runs the initial entry action if it has not run yet, then
// handles events until nothing in the mailbox is dispatchable (empty, or
// only deferred events), clears the bit under the lock that found that
// out, and lets go. Whoever holds the bit owns the machine: its handlers
// run one at a time, and because ownership changes hands under the mailbox
// lock each sees everything the one before it wrote, although successive
// activations may be on different goroutines. The mailbox is two queues:
// the owner's, which only the owner touches, and an inbox, where senders
// append under the lock while the machine is active. The send that finds
// the machine idle takes ownership under the lock and appends to the
// owner's queue itself. The owner dequeues without a lock, and takes it
// only when nothing in its queue is dispatchable: to splice the inbox in
// (trading arrays with it when its queue is empty) or, the inbox empty
// too, to go idle under that same lock. Between activations a machine
// is a struct and a mailbox — no goroutine, no stack, no condition variable
// — so ten thousand idle machines cost their memory and nothing else, and
// a quiescent Runtime that nothing references any more is garbage whether
// or not Stop was called.
//
// An activation started from outside a machine (CreateMachine, SendEvent)
// gets a new goroutine. One started from inside a handler usually gets
// none: the sending goroutine keeps at most one machine it woke in a
// hand-off slot and runs it itself — as the next iteration of its loop,
// not a call — the moment its own machine goes idle, halts or fails. That
// is the whole cost of a message to an idle machine: no goroutine, no park,
// no wake-up. The woken machine never waits longer than the rest of the
// handler that woke it: if that machine's own mailbox still has work at
// its next dequeue, or its handler wakes a second machine, the held one is
// started on a goroutine of its own instead. Consequence for programs: a
// handler must not block waiting for another machine to make progress.
// That was always outside the model — under the testing runtime it
// deadlocks the iteration — and in production it can now also stall the one
// machine the blocked handler had just woken.
//
// No lock is shared between machines on the message path
// (Runtime.enqueue, the production runtime's send): a sender finds the
// target in an atomically published copy of the machine table and locks
// only the target's mailbox. What Wait waits for is activations: a create
// and a send that wakes an idle machine add one to an atomic counter, an
// activation that goes idle or halts takes it away, and only the transition
// to quiescence takes the runtime's lock, to wake Wait. Events a machine
// goes idle with — all of them deferred by its state, those just spliced
// from its inbox included — move to a second counter until a send wakes the
// machine, and if any are left when Wait finds the runtime quiescent, it
// returns that deadlock as a *Bug of kind BugDeadlock, as RunTest does. The
// Sends and MailboxMax metrics are counted per receiving machine, under the
// lock the send holds anyway, and summed by Runtime.Metrics. So a message
// to an active machine costs its sender one mailbox lock pair and no
// process-wide atomic, and its receiver nothing but the dequeue, plus one
// lock pair per batch it splices in; a hop to an idle machine costs the
// send's lock pair, the going idle's, and the two adds of the activation.
// Stop (and the first failure, which Wait returns) is a flag every
// activation reads at its next dequeue. bench's prod_runtime workload reads
// ≈ 63 ns for a hop of a token ring of idle machines and ≈ 111 ns a message
// for three windowed senders into one sink (raw per-cell medians, go1.24,
// 2 vCPU, a host bench rates at 2.2× its reference), against ≈ 86 and
// ≈ 139 there when one locked queue took the lock at every send, dequeue
// and going idle and every message paid three process-wide atomic adds
// (outstanding work up and down, the Sends metric). On slower hosts, the
// scheduler before activations — a goroutine per machine parked on a
// condition variable, and four round trips through the runtime's lock per
// message — read ≈ 540 and ≈ 340 ns, and took ≈ 6 µs against ≈ 2.3 to
// create a machine; an idle machine cost it 5.6 KB and a goroutine,
// against 0.9 KB and none; finding a dequeued event's binding once and
// copying no mailbox slot took the hop from ≈ 300 to ≈ 200 ns there.
//
// # Observability
//
// The runtime records operational metrics through the obs package's
// fixed-size atomic primitives, cheap enough to stay always-on: sends,
// dropped sends (to halted machines), machine creates, monitor dispatches,
// and the high-water mailbox depth, snapshotted by Runtime.Metrics (a
// production send counts sends and the depth in words of the receiving
// machine, under its mailbox lock, which Metrics sums). State-
// transition coverage — which (machine type, state, event) triples actually
// dispatched — is opt-in: attach an obs.StateEventCoverage via WithCoverage
// in production mode or TestConfig.Coverage per bug-finding iteration. A
// schema numbers its action and goto bindings when it is compiled, and a
// runtime resolves the set's counter of each numbered transition once per
// schema, so recording a dispatch is an array access: under a TestHarness a
// plain increment of a count the harness owns (on a cache line of its own,
// so parallel workers do not share it), which Run folds into the shared set
// once per iteration, beside Runtime.Metrics' counts; in production an atomic
// add to the set's counter. No per-dispatch lock, hash or reflection, no
// steady-state allocation; the allocation caps above hold with coverage
// attached (gated by sct's TestTelemetryAllocationOverhead). The sct package
// layers campaign-level telemetry — depth histograms, coverage growth
// curves over wall-clock time, typed progress snapshots, and versioned
// campaign reports — on the same primitives; see its Observability section.
//
// # Resumable campaigns
//
// Exploration state no longer dies with the process. psharp-test -journal
// <dir> makes a campaign durable: every explored schedule's fingerprint,
// each worker's strategy cursor (the position in its seed stream, or the
// frontier of the depth-first search, with its backtrack sets under
// DPOR), the campaign counters and periodic telemetry checkpoints
// are appended to a crash-safe binary journal (the journal package — a
// versioned header and length+FNV-1a-checksummed record framing). After a
// crash — SIGKILL, OOM, CI timeout — rerunning with -resume recovers the
// journal, truncates any torn final record, skips the already-covered
// schedules, and continues each strategy exactly where its cursor left
// off, so an interrupted-and-resumed campaign converges on the same
// distinct-schedule population as an uninterrupted run of the same seed
// and budget. Its report counts the campaign, not the last process: the
// counters record holds everything sct.Tally counts, so explored plus pruned
// schedules are the budget consumed however many runs it took (only the
// state cache, and so the distinct-states count, starts over with each
// process). Recovery is strict about what it forgives: a torn tail (the
// one failure appending can produce) is truncated silently, while a
// checksum mismatch mid-file or an unknown format version is rejected
// loudly rather than silently resurrecting wrong state — and so is a
// frontier the search cannot take up (corrupt, another strategy's, or
// journaled by a build with another cursor format, which has to finish
// that campaign itself): psharp-test says which and exits 2.
//
// Durability has one knob, -journal-sync, the fsync cadence in records:
// 1 fsyncs every record (an OS crash costs nothing, but every append pays
// a disk round trip), the default 64 bounds a power-loss window to one
// batch, and -1 fsyncs only at checkpoints and exit (a process kill still
// loses nothing — the OS flushes the page cache — only a machine crash
// can cost the tail). Because fingerprints are flushed before the cursor
// that covers them, any tear re-executes at most one batch of schedules
// (idempotent) and never skips one.
//
// A journal directory is also a shard manifest: psharp-test -shard i/n
// gives each of n processes its own journal file in the shared directory,
// with the manifest pinning the campaign identity (benchmark, strategy,
// seed, worker count) so mismatched processes are refused. Each shard
// preloads its peers' fingerprints, and journal.ReadState merges the
// directory into one campaign-wide view. Both read a shard by the rules a
// resume does, so a peer holding a record that does not decode, or the meta
// record of another campaign, is refused rather than merged. This is the
// foundation for a continuous fuzzing service where N machines soak one
// corpus protocol and any of them can die and resume. Interruption is
// first-class either way: SIGINT
// or SIGTERM (and the hard -timeout) flush a final checkpoint and still
// write -report-out and -trace-out, with the campaign report marked
// interrupted. See the sct package docs for how the journal stays off the
// exploration hot path.
package psharp

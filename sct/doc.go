// Package sct implements systematic concurrency testing for P# programs
// (paper Section 6.2): an iteration engine that repeatedly executes a
// program from start to completion under controlled schedules, plus the
// scheduling strategies the paper evaluates — exhaustive depth-first search
// and uniform random — together with replay (for deterministic bug
// reproduction), PCT (Burckhardt et al., the paper's reference [4]) and
// delay-bounded search (Emmi et al., reference [9]) as extensions.
//
// The engine has no false positives: every reported bug comes with a
// schedule trace that replays it deterministically.
//
// A strategy here is a Strategy: the one contract the engine drives, which
// every strategy of the package meets, so the engine asks a strategy for no
// capability at run time. Its Decide (psharp.DecisionStrategy) is what the
// controller calls for every query: the strategy writes its answer into the
// Decision — the trace's next record, handed over zeroed — and returns.
// PrepareIteration starts an iteration, CloneForWorker shards the strategy
// across workers, and SaveCursor/LoadCursor carry its position through the
// journal. The three psharp.Strategy methods answer the same queries one
// kind at a time. FaultInjector and Replay answer fault queries in Decide;
// the others decline them and answer the rest through their three methods,
// so a type that embeds one of them and overrides one of those methods must
// override Decide as well. Both arguments are scratch, valid for the call
// only: copy the Enabled or Crashable set to keep it, and never hold on to
// the Decision (the record is not part of the trace until the controller
// has validated it, and is overwritten if it is rejected). A Decision names
// a machine by MachineRef — its Seq — so a strategy answers a machine
// choice with the Ref of an Enabled entry and a crash with the Ref of a
// Crashable one; the type names live in the trace's Types. FaultInjector
// forwards what it does not answer to its inner strategy's Decide.
//
// # Liveness checking
//
// Liveness bugs ("eventually responds", specified by hot/cold monitor
// states — see the psharp package's "Specifying correctness") are checked
// by the controller, not by a strategy or an option: for a program with a
// monitor that declares a hot state, a schedule that returns to a global
// state it was in, around a cycle that kept the monitor hot, scheduled
// every machine enabled at its end and injected no fault, is a fair lasso
// and a psharp.BugLiveness. A cycle that starves an enabled machine is not
// one, so the verdict is sound under every strategy here — a monitor hot
// only because the scheduler starved its discharger is never reported, and
// no fair scheduler is needed (Musuvathi and Qadeer's fair stateless model
// checking is what the check replaces). Like every other bug it replays
// through ReplayTrace, needing no option. What it rests on is the state
// hash the cache uses: two states with one unchecked 64-bit hash are one
// state to a lasso as to the cache. On FairResponder, random and PCT find
// the lost request, and DFS and DPOR find it with the state cache (which
// lets them back up to the early decision it needs) but not in 2 000
// schedules without it; DelayBounding at its budget of 2 misses it. A
// lasso needs a state that recurs: a violation in a program whose state
// keeps growing while the monitor is hot (a counter, a lengthening queue, a
// term) is found only if the program quiesces with the monitor hot, and
// missed otherwise — the price of having no temperature threshold. State
// that cannot be hashed while a monitor is hot ends the search for lassos
// for the iteration, not the iteration (Report.LivenessUnchecked).
//
// # Parallel portfolio exploration
//
// RunParallel is the engine: a pool of workers, each running the core loop
// under an independent strategy instance; Run is its one-worker call, on
// the caller's goroutine. Two portfolio shapes are supported:
//
//   - Homogeneous: worker w of n receives ParallelOptions.Strategy's
//     CloneForWorker(w, n). The built-in strategies shard
//     deterministically: the randomized ones (Random, PCT) map worker w's
//     local iterations onto the global iteration stream {w, w+n, w+2n,
//     ...} of the same base seed, so the parallel run
//     explores exactly the sequential run's schedule population; the
//     searches partition the schedule tree, DFS and DPOR by its first
//     decision, DelayBounding by the depth of a schedule's first delay.
//   - Heterogeneous: ParallelOptions.Portfolio mixes strategies (e.g.
//     NewPortfolio or ParsePortfolio("random,pct,delay,dfs", ...)), with
//     members assigned to workers round-robin and sharded within a member
//     when several workers run it.
//
// The global iteration budget is divided exactly across workers, per-worker
// statistics are merged into one Report (plus per-worker sub-reports in
// ParallelReport.Workers), and every explored schedule is fingerprinted —
// a hash of its decision trace, one 64-bit word per decision (kind, and the
// machine's sequence number, the value drawn or the fault's bits; a
// machine's type name is implied by its creation order and is left out) —
// so Report.DistinctSchedules states how many distinct schedules a run
// covered rather than just raw iteration throughput. Cancellation is
// cooperative and prompt: StopOnFirstBug, Options.Stop and the hard Timeout
// deadline — a timer, armed when the run starts — all set one flag, which
// every worker polls at every scheduling point with one atomic load, so even
// a runaway iteration cannot keep a worker alive and no point reads the
// clock.
//
// Determinism carries over: the same seed and worker count reproduce the
// same merged counts (for runs that are not stopped early, whose timing is
// inherently racy), and a bug trace found by any worker replays through
// ReplayTrace exactly like a sequentially-found one.
//
// # Partial-order reduction and state caching
//
// Exhaustive enumeration wastes most of its budget on schedules that differ
// only in the order of commuting operations — sends to different machines,
// steps of machines that never interact. There is one depth-first search of
// the schedule tree (search.go): a stack of decision nodes, replayed from
// the root and extended at the frontier on every attempt, backtracked
// between attempts, sharded across workers by residue class of the root
// branch, its frontier journaled as a cursor (Strategy.SaveCursor). DFS
// (NewDFS) is that search branching on every enabled machine at every
// schedule node, DelayBounding (NewDelayBounding) the same search within a
// budget of delays of round robin.
// Two reduction mechanisms prune the redundancy, composable and optional:
//
//   - DPOR (NewDPOR) is the same search with a backtrack set per schedule
//     node: dynamic partial-order reduction in the Flanagan–Godefroid style
//     with sleep sets. The engine reports each
//     executed step's footprint (which machine ran, which mailbox it
//     targeted, which machine it created) back to the strategy, which
//     inserts backtrack points only where two steps of different machines
//     actually conflict; interleavings of independent steps collapse into
//     one representative. Sleep sets steer workers away from branches whose
//     conflicts were already explored. DPOR is exhaustive where DFS is —
//     when it exhausts its tree, every Mazurkiewicz trace of the program
//     has a representative explored — but reaches exhaustion orders of
//     magnitude sooner on programs with independent components. Its root
//     keeps all branches, so sharding never loses soundness; replay,
//     cursors and checkpointed prefixes are DFS's, being the same code.
//
//   - The hashed global-state cache (Options.StateCache) fingerprints the
//     global state — every machine's serialized fields, control state and
//     queue contents, plus monitor states — at each scheduling point,
//     incrementally (only the machine that stepped,
//     the one it sent to and the ones it created rehash). When a schedule
//     reaches a state some earlier schedule
//     already covered at the same or shallower depth with a different
//     prefix, the rest of the iteration is cut short: everything reachable
//     below it has been or will be explored from the first visit. Pruned
//     attempts are reported as Report.PrunedIterations and the state
//     population as Report.DistinctStates — never folded into Iterations,
//     DistinctSchedules or SchedulesPerSecond, so throughput numbers stay
//     comparable with cache-free runs.
//
// Cost model. The paper's search is stateless: an attempt starts the
// program over and re-executes the decision prefix it shares with the
// worker's previous attempt before it takes its first new step, and with a
// cache most attempts are pruned a step or two past that prefix. The search
// implements psharp.PrefixResumer — it tells the harness how much of
// the last attempt the next one repeats — and the harness starts the attempt
// from the deepest checkpoint it holds inside that prefix: a copy of the
// program taken at a scheduling point, a machine parked in the middle of a
// handler held as it began the handler and rebuilt by running it again (see
// "What a depth-first attempt costs" in the psharp package docs, which also
// lists what is never checkpointed; under reduction each node keeps the
// sleep set its step left, and the resume point's is a copy of the deepest
// one's). Such an
// attempt does not run setup: the program must register pure machine
// factories and keep its state in machines, monitors and events (see
// psharp.NewTestHarness). What is left of the prefix the search promises to
// repeat is executed but neither hashed nor shown to the cache — an equal
// decision prefix reaches an equal state, which the previous attempt showed
// it (see psharp.StateCache), and the promise is the harness's only record of
// that prefix — so an attempt costs a
// relocation of what the last attempt changed of the checkpoint's image of
// the program (no walk of it: an
// allocation and a typed copy per object, a store per pointer) + prefix
// re-execution from the checkpoint on + one hash of every rebuilt machine at
// the point where it diverges + incremental hashing of its new suffix.
// Report.TotalSchedulingPoints counts explored schedules only;
// Report.PrunedPoints adds the points of the pruned attempts,
// Report.ReplayedPoints / Shares().ReplayedShare say how much of the total repeated
// the attempt before (≈ 97 % on TwoPhaseCommit under DPOR+cache), and
// Report.RestoredPoints / Shares().RestoredShare how much of it came out of a
// checkpoint instead of being executed (over 1 000 DFS attempts ≈ 90–95 % on
// BoundedAsync, German, TwoPhaseCommit and ChainReplication, 83 % on Chord,
// 67 % on AsyncSystemSim, where a dispatcher shares its list of services
// with the master it appoints, so that a master mid-handler cannot be
// rebuilt apart from it). Every one of these counts but the last two is
// what it would be without checkpoints: the searches are the same, attempt
// for attempt (TestDPORCorpusDFSParity runs the corpus both ways).
//
// Both mechanisms are sound for bug finding (they skip only executions
// equivalent to an explored one) but only relative to depth-first
// exploration, and neither composes with fault injection; "Option
// compatibility" below has the rules. Note the paper's own Table 2 caveat
// applies — on
// protocols whose bugs hide deep in long schedules, random search finds
// what any depth-first enumeration (reduced or not) misses; DPOR+cache is
// the right tool when exhaustiveness or a reproducible sweep of a
// tractable state space is the goal, and TestDPORCorpusBeatsRandom holds
// it to at most half of random's schedules-to-bug on the corpus subset
// where both apply.
//
// # Option compatibility
//
// ParallelOptions.Validate is the one place that says which options may be
// combined; this is its prose form. RunParallel (and so Run) panics with
// its error, psharp-test exits 2 with the same text, and TestOptionMatrix
// walks the cross-product on both. What the rules need to know about a
// strategy — depth-first? delay-bounded? — comes from the one table
// of named strategies (strategies.go, NewStrategy); a Strategy from outside
// the table is assumed to be none of them. dfs, dpor and delay are the
// depth-first search plain, reduced and delay-bounded. In the order checked:
//
//   - Iterations must be positive, a Strategy or a Portfolio present (the
//     Portfolio wins), and ShardIndex within [0, ShardCount).
//   - StateCache × faults: injected faults mutate state outside the hashed
//     footprint, so a revisited hash no longer means a covered subtree.
//
// Then per worker this process starts (WorkerCount of them), on the strategy
// the worker resolves to — so a portfolio member is held to exactly what the
// same strategy is held to on its own:
//
//   - depth-first (dfs, dpor, delay) × faults: the search replays the
//     previous iteration's prefix, but the injector draws its faults afresh
//     each iteration, so the replay diverges; dpor's reduction would also
//     miss the fault decisions, which carry no footprints;
//   - StateCache × delay: a state first reached with fewer delays left
//     would prune, reached again with more, the schedules that need them;
//   - StateCache × a worker that is not depth-first (dfs, dpor): pruning
//     revisited states only preserves coverage when the owning subtree is
//     completed first. An all-depth-first portfolio ("dfs,dpor") passes.
//
// # Performance model
//
// Each worker owns a psharp.TestHarness, so consecutive iterations recycle
// the serialized runtime, machine instances with their parked coroutines,
// queue slices and trace buffers instead of rebuilding them (see the psharp
// package's performance model); per-iteration allocations are proportional
// to machines created, and extra scheduling points are allocation-free.
// A scheduling point is the strategy's decision, taken on the stack of the
// machine that reached the send or create, plus — only when the decision
// picks another machine — a direct coroutine switch through the controller:
// ≈ 285–320 ns all told on the Table 2 protocols (psharp.step_ns_per_sp in
// bash bench/run.sh -workload table2_random -trace 1, go1.24, 2 vCPU; ≈ 570
// when every point switched, ≈ 1 120 for the channel handshake before that).
// Report.ContinuedPoints / Shares().ContinuedShare count the points that
// needed no switch (0.13–0.23 per protocol there, 0.94 on German's livelock,
// 0.25–0.6 under DFS); the campaign report and the -http snapshot carry
// them, with the replayed and restored shares, so a campaign shows its own
// hand-off profile.
// Strategies and Options.Stop/Timeout polling therefore run on machine
// coroutines' stacks as well as on the worker's; a strategy that panics
// (a diverged replay) still surfaces from Run as that panic, after the
// iteration was torn down. A worker's harness
// starts from the process-wide reserve of idle machine instances earlier
// harnesses left behind, so a campaign or a ReplayTrace that follows
// another pays no coroutine construction.
// A static machine or monitor type (psharp.StaticMachine) is compiled once
// per process for each probe value, not once per worker or per campaign: a
// campaign, and the ReplayTrace that confirms its bug, start on schemas an
// earlier harness of the process compiled, while the buggy and the correct
// variant of a protocol, whose probes differ in one flag, keep one schema
// each. Within a harness, setup re-registers the types every iteration, but
// a name already bound is neither probed nor looked up again. Closure-form
// machines keep paying one schema build per machine per iteration, which
// dominates their allocation profile.
//
// PCT's decision reads no map: a machine's priority sits in a slice at its
// sequence number and the d−1 change points in a sorted slice passed in step
// order, so choosing costs one scan of the enabled machines, whatever their
// type names.
//
// Static sharding pre-assigns worker w the global iterations congruent to w
// modulo n, which is what makes parallel runs deterministic and
// population-equal to sequential ones — but leaves a worker idle once its
// shard is done while a slower one works on. A campaign that must keep every
// worker busy to its end sets a time budget (Options.Timeout) instead of
// relying on the iteration budget alone.
//
// Fault injection (Options.Faults) rides the same hot path at near-zero
// cost when off: with no fault budget the controller never issues fault
// queries and the trace carries no fault records. With a budget, every
// scheduler pass and every machine send adds one strategy query and one
// trace record (written by the injector in place, in the recycled trace
// buffer), and each crash-with-restart pays one factory call plus machine
// re-wiring — proportional to faults injected, not schedule length. The
// injector's own randomness is a separate seed-sharded stream, so enabling
// faults does not perturb which interleavings the inner strategy explores,
// and fault-enabled parallel runs shard deterministically like Random does
// (TestFaultInjectionFindsCrashOnlyBug shows what the budget buys on the
// crash-tolerant corpus).
//
// Specification monitors cost almost nothing on this hot path: observation
// is synchronous, allocation-free dispatch through the monitor's compiled
// schema (cached per name, instance recycled by the harness), so a
// monitored worker pays only the monitor factory's allocations per
// iteration — at most 5 on the protocol workloads, gated by
// TestMonitorAllocationCap and TestProtocolMonitorAllocationCap.
//
// What each of these layers costs per scheduling point, and the end-to-end
// throughput they add up to, is measured by the repository's benchmark
// (bash bench/run.sh; BENCHMARK.json names its workloads and metrics).
//
// # Observability
//
// What a campaign counts is one type, Tally: a worker counts each finished
// iteration into its own, and the campaign's is the journaled past ⊕ the
// workers' whoever asks and whenever — the final Report, a Progress
// snapshot, a mid-run Telemetry.Snapshot, a journal checkpoint. Report,
// CampaignResult and TelemetrySnapshot embed it.
//
// The engine exposes campaign measurement at three granularities, all built
// on the obs package's allocation-conscious primitives so the performance
// model above survives with them enabled:
//
//   - Progress snapshots: Options.Progress receives a typed Progress value
//     every ProgressEvery iterations of each worker, serialized behind a
//     run-wide mutex. Snapshots carry global counters (iterations, buggy,
//     distinct fingerprints against the global budget) so they report true
//     campaign progress, whichever worker emits them. ProgressText
//     renders a human line; ProgressJSONL a machine-readable stream.
//
//   - Telemetry: Options.Telemetry accumulates, across every worker of a
//     run, the distribution of schedule depths (a fixed 64-bucket
//     power-of-two histogram over scheduling points per iteration),
//     state-transition coverage — the distinct (machine type, state, event)
//     triples the explored schedules actually dispatched, counted by each
//     worker's harness in words of its own and added to the shared set once
//     per iteration — a census of buggy
//     iterations by bug kind, and a growth curve sampling iterations,
//     distinct schedule fingerprints, and covered transitions against
//     wall-clock time (bounded points; the interval doubles and the curve
//     thins when it fills). Recording happens between iterations and is
//     allocation-free in steady state; Telemetry.Snapshot is the
//     allocating, read-only view and is safe against a live run, which is
//     what psharp-test's -http debug endpoint serves. The Tally in a
//     snapshot is read from the run's workers at that moment.
//
//   - Campaign reports: NewCampaign assembles a versioned (CampaignVersion)
//     JSON document from a finished run — environment metadata, the merged
//     result, a per-strategy breakdown of portfolio workers, and the
//     telemetry snapshot with its coverage-growth curve. psharp-test
//     -report-out writes one.
//
// # Resumable campaigns
//
// Options.Journal attaches a journal.Campaign, making the run durable and
// resumable (see the journal package for the file format and recovery
// semantics). The fingerprints it stores are this package's: the function
// that makes them is part of the format (journal.Version 2), and a campaign
// journaled by a build with another one is refused with a
// *journal.VersionError, not resumed into counting its schedules twice.
// Each worker appends its schedule fingerprints and its
// strategy cursor in batches of 64 iterations from a
// preallocated buffer, off the scheduling hot path — journaling adds at
// most one allocation per steady-state iteration (measured zero; gated by
// the alloc test), and journal IO errors are latched on the Campaign
// rather than propagated into the exploration loop. Within a batch,
// fingerprints are appended before the cursor that covers them, so a torn
// tail can only re-execute up to one batch of schedules after resume —
// idempotent work — and never skip any.
//
// On a resumed run the engine restores each worker before its first
// iteration: the depth-first search reloads its exact position via
// LoadCursor from the one cursor format it has (version 2: the stack, with
// the backtrack sets and step footprints of its nodes when it is DPOR's and
// the current bound when it is DelayBounding's), while the reseeding
// strategies (Random, PCT, FaultInjector around any of them)
// need only the completed-iteration count, because worker w's iteration k
// is a pure function of (seed, w, k) (seedStream). A cursor that does not load — another strategy's, a corrupt
// one, one in the two layouts of version 1 — ends the run before its first
// iteration with Report.Err (psharp-test prints it and exits 2); a version-1
// campaign has to be finished by the build that journaled it or started
// afresh. Workers then skip their already-completed
// slots of the global iteration stream — zero journal-covered schedules
// re-execute (observable in ParallelReport.Workers, whose per-worker
// iteration counts are this-process-only) — and the merged Report carries
// the campaign's Tally: the journal's counters record holds the whole Tally
// of the runs before, and it merges in as one more worker's would. So after
// a resume Iterations + PrunedIterations is the budget consumed and every
// share is a ratio of two campaign-wide numbers; Report.DistinctSchedules
// counts the union of journaled and new fingerprints, and only
// Report.DistinctStates is this process's alone (the state cache is not
// journaled). A twelve-value counters record, from before it carried the
// state-cache and hand-off counters, still resumes; they count from zero.
//
// Options.Stop is the cooperative-cancellation side of the same story:
// closing the channel (psharp-test wires SIGINT/SIGTERM to it) stops every
// worker at its next scheduling point, flushes the journal batches and a
// final checkpoint, and returns a Report with Interrupted set — partial
// results intact — rather than dying with state unwritten. The hard
// Timeout deadline reports the same way; exhausting the budget or
// StopOnFirstBug does not count as an interruption.
package sct

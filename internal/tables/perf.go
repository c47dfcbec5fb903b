package tables

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/interp"
	"github.com/psharp-go/psharp/journal"
	"github.com/psharp-go/psharp/lang"
	"github.com/psharp-go/psharp/obs"
	"github.com/psharp-go/psharp/sct"
)

// AllocProbe records allocations per iteration for one workload, through
// the pooled TestHarness vs one-shot RunTest (the pre-harness hot path).
type AllocProbe struct {
	// Workload names the probed program: "relay-hotpath" is the synthetic
	// message-relay ring whose per-step work isolates the runtime's own
	// overhead (the ≥50%-saving gate runs against it); the other entry is
	// the protocol benchmark, whose machines use the static declaration
	// form, so their schemas are compiled once per type and the pooled
	// steady state pays only per-machine logic and wiring allocations.
	Workload string `json:"workload"`
	// Pooled is the steady-state heap allocations per iteration through a
	// warmed psharp.TestHarness.
	Pooled float64 `json:"allocs_per_iteration_pooled"`
	// OneShot is the same workload through per-iteration psharp.RunTest.
	OneShot float64 `json:"allocs_per_iteration_oneshot"`
	// SavedPercent is the pooled-vs-one-shot saving (higher is better).
	SavedPercent float64 `json:"allocs_saved_percent"`
}

// PerfReport is the machine-readable exploration-performance record emitted
// as BENCH_sct.json (psharp-bench -json), so the hot-path trajectory —
// schedule throughput and allocations per iteration — is tracked across
// changes instead of living only in transient benchmark output.
type PerfReport struct {
	// Env records where the numbers were measured (go version, GOMAXPROCS,
	// CPU count, timestamp) — throughput and allocation figures are not
	// comparable across machines without it.
	Env obs.Env `json:"env"`
	// Benchmark is the protocol the probe ran (buggy variant).
	Benchmark string `json:"benchmark"`
	// Strategy names the scheduling strategy used for the throughput run.
	Strategy string `json:"strategy"`
	// Iterations is the schedule budget of the throughput run.
	Iterations int `json:"iterations"`
	// Workers is the number of exploration workers (1 = sequential Run).
	Workers int `json:"workers"`
	// Dynamic reports whether work-stealing sharding was used.
	Dynamic bool `json:"dynamic"`
	// SchedulesPerSec is the paper's #Sch/sec throughput metric.
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	// TotalSchedulingPoints sums scheduling decisions across the run.
	TotalSchedulingPoints int64 `json:"total_scheduling_points"`
	// AllocProbes holds the per-workload allocation measurements.
	AllocProbes []AllocProbe `json:"alloc_probes"`
	// SchemaProbe quantifies the per-type compiled-schema cache.
	SchemaProbe SchemaCacheProbe `json:"schema_cache_probe"`
	// MonitorProbe quantifies the specification layer's steady-state cost:
	// allocs/iteration with the benchmark's monitors attached vs without.
	MonitorProbe MonitorOverheadProbe `json:"monitor_overhead_probe"`
	// TelemetryProbe quantifies the observability layer's steady-state cost:
	// allocs/iteration through the engine with a Telemetry accumulator
	// attached vs without. CI gates its delta at <= 3.
	TelemetryProbe TelemetryOverheadProbe `json:"telemetry_overhead_probe"`
	// InterpCoverage summarizes .psl state-transition coverage over the
	// Table 1 corpus under the operational semantics.
	InterpCoverage InterpCoverageProbe `json:"interp_coverage_probe"`
	// InterpPerf compares the .psl tree-walker against the bytecode VM on
	// the same corpus. CI gates the speedup at >= MinInterpSpeedup.
	InterpPerf InterpPerfProbe `json:"interp_perf_probe"`
	// FaultProbe measures what fault injection buys on the crash-tolerant
	// corpus: buggy schedules found with the same budget, faults off vs on.
	FaultProbe FaultProbe `json:"fault_probe"`
	// ResumeProbe validates the resumable-campaign invariant: a budget-split
	// journaled run must converge on the uninterrupted run's population.
	// CI fails the perf-report step when the populations diverge.
	ResumeProbe ResumeProbe `json:"resume_probe"`
	// DPORProbe measures schedules-to-bug on the gated corpus subset, random
	// vs DPOR with the state cache. CI fails the perf-report step when any
	// bug is missed or any ratio exceeds MaxDPORScheduleRatio.
	DPORProbe DPORProbe `json:"dpor_probe"`
	// StateCacheProbe quantifies the hashed global-state cache's hit rate on
	// a real protocol: how much of a fixed attempt budget is pruned as
	// revisits of already-covered global states.
	StateCacheProbe StateCacheProbe `json:"state_cache_probe"`
	// Table1 is the paper's Table 1 as RunTable1 measured it: per program
	// the analysis time (median of table1Runs, time_us and racy_time_us),
	// the false-positive counts and the verdicts.
	Table1 []Table1Row `json:"table1"`
	// WorkerIterations records how many iterations each worker actually
	// executed (uneven under Dynamic; the static shard sizes otherwise).
	WorkerIterations []int `json:"worker_iterations"`
	// Campaign is the structured campaign report of the throughput run —
	// the same document psharp-test -report-out writes, embedded so the
	// perf artifact carries coverage-growth curves alongside throughput.
	Campaign *sct.Campaign `json:"campaign"`
}

// SchemaCacheProbe records steady-state allocations per iteration through
// the pooled harness on the same protocol under both schema regimes: the
// per-type compiled-schema cache on (static declarations, compiled once at
// registration) vs off (schemas rebuilt and revalidated for every machine
// instance — the cost the closure declaration form pays by design, and
// what every create paid before the cache existed).
type SchemaCacheProbe struct {
	// Workload names the probed protocol (buggy variant).
	Workload string `json:"workload"`
	// Cached is allocs/iteration with schemas compiled once per type.
	Cached float64 `json:"allocs_per_iteration_schema_cached"`
	// PerInstance is the same workload with the cache disabled
	// (psharp.WithoutSchemaCache), i.e. closure-form schema costs.
	PerInstance float64 `json:"allocs_per_iteration_schema_per_instance"`
	// SavedPercent is what the cache saves (higher is better).
	SavedPercent float64 `json:"schema_cache_saved_percent"`
}

// MonitorOverheadProbe records steady-state allocations per iteration
// through the pooled harness with the protocol's specification monitors
// attached (Benchmark.SetupMonitored) vs plain. A static monitor's schema
// is compiled once per name and its instance is recycled by the harness, so
// the expected delta is the per-iteration logic allocation of each monitor
// (the pooled-harness cap test pins it at <= 5).
type MonitorOverheadProbe struct {
	// Workload names the probed protocol (buggy variant).
	Workload string `json:"workload"`
	// Unmonitored is allocs/iteration without monitors.
	Unmonitored float64 `json:"allocs_per_iteration_unmonitored"`
	// Monitored is the same workload with the monitors attached.
	Monitored float64 `json:"allocs_per_iteration_monitored"`
	// DeltaAllocs is what the specification layer adds per iteration.
	DeltaAllocs float64 `json:"monitor_delta_allocs"`
}

// TelemetryOverheadProbe records allocations per iteration through the sct
// engine (pooled worker harness) with an sct.Telemetry accumulator attached
// vs without. Coverage hits are read-lock + atomic add, depth observations
// index a fixed histogram, and curve samples amortize to fractions of an
// allocation per iteration, so the expected delta is near zero; the gate
// caps it at MaxTelemetryDeltaAllocs.
type TelemetryOverheadProbe struct {
	// Workload names the probed protocol (buggy variant).
	Workload string `json:"workload"`
	// Plain is allocs/iteration through sct.Run without telemetry.
	Plain float64 `json:"allocs_per_iteration_plain"`
	// Telemetry is the same run with an accumulator attached.
	Telemetry float64 `json:"allocs_per_iteration_telemetry"`
	// DeltaAllocs is what the observability layer adds per iteration.
	DeltaAllocs float64 `json:"telemetry_delta_allocs"`
}

// MaxTelemetryDeltaAllocs is the regression budget for the telemetry
// overhead probe: attaching a Telemetry accumulator may add at most this
// many allocations per iteration. CI fails the perf-report step beyond it.
const MaxTelemetryDeltaAllocs = 3.0

// InterpCoverageProbe aggregates .psl state-transition coverage across the
// Table 1 corpus: every non-racy benchmark runs under the interpreter for a
// handful of seeds with an obs.StateEventCoverage attached, and the probe
// reports how many of the statically declared machine transitions
// (interp.DeclaredTransitions) the schedules actually dispatched.
type InterpCoverageProbe struct {
	// Benchmarks is how many corpus programs were executed.
	Benchmarks int `json:"benchmarks"`
	// Seeds is the number of random schedules tried per benchmark.
	Seeds int `json:"seeds_per_benchmark"`
	// DeclaredTransitions sums the machine-side on-do/on-goto bindings
	// across the corpus (the coverage denominator; monitors excluded).
	DeclaredTransitions int `json:"declared_transitions"`
	// CoveredTransitions counts the distinct triples actually dispatched.
	CoveredTransitions int64 `json:"covered_transitions"`
	// CoveredPercent is the corpus-wide coverage ratio.
	CoveredPercent float64 `json:"covered_percent"`
}

// InterpPerfProbe records .psl interpreter throughput over the Table 1
// corpus under both execution engines: every non-racy benchmark runs the
// same seeded schedules through the tree-walking evaluator and through the
// compiled bytecode VM, and the probe reports whole-schedule throughput for
// each. Both engines are warmed first (schema, intern-table, and bytecode
// caches compile per Program, outside the timed region), so the ratio
// isolates steady-state execution cost.
type InterpPerfProbe struct {
	// Benchmarks is how many corpus programs were timed.
	Benchmarks int `json:"benchmarks"`
	// Seeds is the number of schedules timed per benchmark per engine.
	Seeds int `json:"seeds_per_benchmark"`
	// Steps sums the scheduler steps one engine executed across the corpus
	// (identical for both engines — the differential harness locks them).
	Steps int64 `json:"steps_per_engine"`
	// WalkSchedulesPerSec is full schedules per second under the walker.
	WalkSchedulesPerSec float64 `json:"walk_schedules_per_sec"`
	// BytecodeSchedulesPerSec is the same schedules under the bytecode VM.
	BytecodeSchedulesPerSec float64 `json:"bytecode_schedules_per_sec"`
	// Speedup is bytecode over walker throughput (higher is better).
	Speedup float64 `json:"speedup"`
}

// FaultProbe compares exploration of the crash-tolerant corpus with and
// without fault injection under an identical schedule budget: the seeded
// TwoPhaseCommitFT bug is only reachable through a coordinator crash, so
// the fault-free side is expected to find nothing while the fault-enabled
// side finds buggy schedules — the bugs-per-budget value the fault
// subsystem exists to buy. The fault columns record how hard the injector
// actually drove the program.
type FaultProbe struct {
	// Workload names the probed protocol (buggy variant, monitors attached).
	Workload string `json:"workload"`
	// ScheduleBudget is the iteration budget given to each side.
	ScheduleBudget int `json:"schedule_budget"`
	// FaultBudget is the per-schedule fault budget of the enabled side.
	FaultBudget int `json:"fault_budget"`
	// BuggyFaultFree counts buggy schedules found with faults off.
	BuggyFaultFree int `json:"buggy_schedules_fault_free"`
	// BuggyWithFaults counts buggy schedules found with faults on.
	BuggyWithFaults int `json:"buggy_schedules_with_faults"`
	// Crashes..Reorders break down the faults injected by the enabled side.
	Crashes    int `json:"crashes"`
	Restarts   int `json:"restarts"`
	Drops      int `json:"drops"`
	Duplicates int `json:"duplicates"`
	Reorders   int `json:"reorders"`
}

// ResumeProbe records a journaled budget-split campaign against an
// uninterrupted control run of the same seed and budget: the first slice
// explores part of the budget and closes its journal, the second resumes it
// to the full budget, and the populations must match exactly — same
// distinct-schedule count, same buggy-schedule count, and the resumed slice
// executing only the remaining budget (zero re-executed schedules).
type ResumeProbe struct {
	// Workload names the probed protocol (buggy variant).
	Workload string `json:"workload"`
	// ScheduleBudget is the full campaign budget; SplitAt is where the first
	// slice stopped and the journal took over.
	ScheduleBudget int `json:"schedule_budget"`
	SplitAt        int `json:"split_at"`
	// DistinctSolo/DistinctResumed are the distinct-schedule populations of
	// the control run and of the split campaign after its resume.
	DistinctSolo    int `json:"distinct_schedules_solo"`
	DistinctResumed int `json:"distinct_schedules_resumed"`
	// BuggySolo/BuggyResumed are the buggy-schedule counts of both sides.
	BuggySolo    int `json:"buggy_schedules_solo"`
	BuggyResumed int `json:"buggy_schedules_resumed"`
	// ResumedSliceIterations is how many schedules the resuming process
	// itself executed; equality with budget−split proves no journal-covered
	// schedule was re-run.
	ResumedSliceIterations int `json:"resumed_slice_iterations"`
	// PopulationsMatch summarizes the gate: distinct and buggy counts equal
	// and the resumed slice ran exactly the remaining budget.
	PopulationsMatch bool `json:"populations_match"`
}

// MinInterpSpeedup is the regression budget for the interpreter perf probe:
// the bytecode VM must run corpus schedules at least this many times faster
// than the tree-walker. CI fails the perf-report step below it.
const MinInterpSpeedup = 5.0

// MaxDPORScheduleRatio is the regression budget for the DPOR probe: on every
// gated benchmark, DPOR with the state cache must reach the seeded bug in at
// most this fraction of the schedules the random strategy needs. CI fails
// the perf-report step beyond it, and whenever either side misses a bug.
const MaxDPORScheduleRatio = 0.5

// DPORBenchProbe records one gated benchmark's schedules-to-bug comparison.
// Both sides run StopOnFirstBug under the same budget; the DPOR side counts
// only explored schedules — pruned attempts are reported separately, never
// folded into the ratio's numerator (they cost hash lookups, not replays).
type DPORBenchProbe struct {
	// Workload names the probed protocol (buggy variant, monitors attached).
	Workload string `json:"workload"`
	// ScheduleBudget is the iteration budget given to each side.
	ScheduleBudget int `json:"schedule_budget"`
	// RandomSchedules is how many schedules random search needed to reach
	// the seeded bug (first-bug iteration + 1).
	RandomSchedules int `json:"random_schedules_to_bug"`
	// DPORSchedules is how many schedules DPOR+cache explored to the bug.
	DPORSchedules int `json:"dpor_schedules_to_bug"`
	// PrunedIterations and DistinctStates are the DPOR side's cache census.
	PrunedIterations int `json:"pruned_iterations"`
	DistinctStates   int `json:"distinct_states"`
	// FoundRandom/FoundDPOR report whether each side reached the bug.
	FoundRandom bool `json:"found_random"`
	FoundDPOR   bool `json:"found_dpor"`
	// Ratio is DPORSchedules over RandomSchedules (lower is better).
	Ratio float64 `json:"schedule_ratio"`
}

// DPORProbe aggregates the gated corpus subset — the benchmarks whose
// seeded bugs systematic depth-first exploration can reach (the full Table 2
// corpus is covered by the DFS-parity soundness test instead, since
// depth-first search inherently misses the deep bugs random stumbles into).
type DPORProbe struct {
	Benchmarks []DPORBenchProbe `json:"benchmarks"`
	// WorstRatio is the largest schedule ratio across the gated subset.
	WorstRatio float64 `json:"worst_ratio"`
	// AllFound reports whether both sides reached every seeded bug.
	AllFound bool `json:"all_found"`
}

// StateCacheProbe records one keep-going DPOR run with the hashed
// global-state cache attached: of a fixed attempt budget, how many schedules
// were cut short because their prefix reached an already-covered global
// state, and how large the distinct-state population grew.
type StateCacheProbe struct {
	// Workload names the probed protocol (buggy variant, monitors attached).
	Workload string `json:"workload"`
	// AttemptBudget is the iteration budget; explored + pruned sums to it
	// (modulo early exhaustion).
	AttemptBudget int `json:"attempt_budget"`
	// Explored is the schedules run to completion (Report.Iterations —
	// pruned attempts are excluded from it and from SchedulesPerSecond).
	Explored int `json:"explored_schedules"`
	// Pruned is the attempts cut short by a cache hit.
	Pruned int `json:"pruned_schedules"`
	// DistinctStates is the hashed global-state population.
	DistinctStates int `json:"distinct_states"`
	// PrunedPercent is pruned over total attempts (the cache hit rate).
	PrunedPercent float64 `json:"pruned_percent"`
	// StatesPerSec is distinct states discovered per second of exploration.
	StatesPerSec float64 `json:"distinct_states_per_sec"`
	// ReplayedShare is the share of the executed scheduling decisions
	// (pruned attempts' included) that re-executed the previous attempt's
	// prefix (Report.ReplayedShare): what snapshots could save at most.
	ReplayedShare float64 `json:"replayed_share"`
}

// PerfProbeOptions configures RunPerfProbe. Zero values select defaults.
type PerfProbeOptions struct {
	Benchmark  string // default "TwoPhaseCommit" (buggy variant)
	Iterations int    // throughput budget; default 1000
	Workers    int    // default 1
	Dynamic    bool
	Seed       uint64 // default 1
	// AllocRuns is the sample count per allocation measurement; default 50.
	AllocRuns int
}

// RunPerfProbe measures the exploration hot path: allocations per iteration
// through the pooled harness vs one-shot RunTest, and schedule throughput
// under the requested worker configuration.
func RunPerfProbe(o PerfProbeOptions) (PerfReport, error) {
	if o.Benchmark == "" {
		o.Benchmark = "TwoPhaseCommit"
	}
	if o.Iterations <= 0 {
		o.Iterations = 1000
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.AllocRuns <= 0 {
		o.AllocRuns = 50
	}
	b, ok := protocols.ByName(o.Benchmark, true)
	if !ok {
		return PerfReport{}, fmt.Errorf("tables: no buggy benchmark %q", o.Benchmark)
	}
	rep := PerfReport{
		Env:        obs.CaptureEnv(),
		Benchmark:  o.Benchmark,
		Strategy:   "random",
		Iterations: o.Iterations,
		Workers:    o.Workers,
		Dynamic:    o.Dynamic,
	}

	// Allocation probes: same workloads, one-shot vs pooled.
	protocolCfg := psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
	protocolProbe := probeAllocs(o.Benchmark, b.Setup, protocolCfg, o)
	rep.AllocProbes = []AllocProbe{
		probeAllocs("relay-hotpath", relaySetup(2, 256), psharp.TestConfig{}, o),
		protocolProbe,
	}
	// The cached side of the schema probe is the protocol's pooled number
	// measured above; only the cache-disabled side needs its own run.
	rep.SchemaProbe = SchemaCacheProbe{
		Workload:    o.Benchmark,
		Cached:      protocolProbe.Pooled,
		PerInstance: pooledAllocs(b.Setup, protocolCfg, o, psharp.WithoutSchemaCache()),
	}
	if rep.SchemaProbe.PerInstance > 0 {
		rep.SchemaProbe.SavedPercent = 100 * (1 - rep.SchemaProbe.Cached/rep.SchemaProbe.PerInstance)
	}
	// Monitor overhead: the unmonitored side is the protocol's pooled number
	// measured above; only the monitored side needs its own run.
	rep.MonitorProbe = MonitorOverheadProbe{
		Workload:    o.Benchmark,
		Unmonitored: protocolProbe.Pooled,
		Monitored:   pooledAllocs(b.SetupMonitored(), protocolCfg, o),
	}
	rep.MonitorProbe.DeltaAllocs = rep.MonitorProbe.Monitored - rep.MonitorProbe.Unmonitored
	rep.TelemetryProbe = probeTelemetryOverhead(o, b.Setup, b.MaxSteps)
	var err error
	if rep.InterpCoverage, err = probeInterpCoverage(5); err != nil {
		return PerfReport{}, err
	}
	if rep.InterpPerf, err = probeInterpPerf(200); err != nil {
		return PerfReport{}, err
	}
	rep.FaultProbe = probeFaults(o.Seed)
	if rep.ResumeProbe, err = probeResume(o.Benchmark, o.Seed); err != nil {
		return PerfReport{}, err
	}
	rep.DPORProbe = probeDPOR(o.Seed)
	rep.StateCacheProbe = probeStateCache()
	if rep.Table1, err = RunTable1(); err != nil {
		return PerfReport{}, err
	}

	// Throughput probe, with telemetry attached so the perf artifact embeds
	// the same campaign document psharp-test -report-out writes.
	tel := sct.NewTelemetry(0)
	so := sct.Options{
		Strategy:   sct.NewRandom(o.Seed),
		Iterations: o.Iterations,
		MaxSteps:   b.MaxSteps,
		Telemetry:  tel,
	}
	ccfg := sct.CampaignConfig{
		Benchmark:  o.Benchmark,
		Strategy:   "random",
		Workers:    o.Workers,
		Dynamic:    o.Dynamic,
		Iterations: o.Iterations,
		MaxSteps:   b.MaxSteps,
		Seed:       o.Seed,
	}
	prep := sct.RunParallel(b.Setup, sct.ParallelOptions{
		Options: so, Workers: o.Workers, Dynamic: o.Dynamic,
	})
	rep.SchedulesPerSec = prep.SchedulesPerSecond()
	rep.TotalSchedulingPoints = prep.TotalSchedulingPoints
	for _, w := range prep.Workers {
		rep.WorkerIterations = append(rep.WorkerIterations, w.Report.Iterations)
	}
	rep.Campaign = sct.NewCampaign(ccfg, &prep.Report, prep.Workers, tel)
	return rep, nil
}

// probeFaults runs the crash-tolerant corpus benchmark through the engine
// twice with an identical schedule budget — faults off, then a budget of 2
// faults per schedule — and reports buggy-schedule counts for both sides
// plus the injected-fault breakdown. Keep-going mode (no StopOnFirstBug)
// makes the counts comparable across runs.
func probeFaults(seed uint64) FaultProbe {
	b := protocols.MustByName("TwoPhaseCommitFT", true)
	const budget = 400
	p := FaultProbe{Workload: b.ID(), ScheduleBudget: budget, FaultBudget: 2}
	base := sct.Options{
		Strategy:   sct.NewRandom(seed),
		Iterations: budget,
		MaxSteps:   b.MaxSteps,
	}
	p.BuggyFaultFree = sct.Run(b.SetupMonitored(), base).BuggyIterations
	withFaults := base
	withFaults.Strategy = sct.NewRandom(seed)
	withFaults.Faults = sct.FaultOptions{
		Budget: p.FaultBudget, Seed: seed, Horizon: 64,
		Immune: b.FaultImmune, Restart: true,
	}
	r := sct.Run(b.SetupMonitored(), withFaults)
	p.BuggyWithFaults = r.BuggyIterations
	p.Crashes, p.Restarts = r.Faults.Crashes, r.Faults.Restarts
	p.Drops, p.Duplicates, p.Reorders = r.Faults.Drops, r.Faults.Duplicates, r.Faults.Reorders
	return p
}

// probeDPOR runs the gated corpus subset through random search and through
// DPOR with the state cache, StopOnFirstBug on both sides, and reports how
// many schedules each needed to reach the seeded bug. The budgets mirror the
// corpus soundness tests: TwoPhaseCommit needs headroom for the ~3.5k
// attempts the cache prunes before the bug branch.
func probeDPOR(seed uint64) DPORProbe {
	gated := []struct {
		name   string
		budget int
	}{
		{"TwoPhaseCommit", 4000},
		{"Chord", 2000},
	}
	p := DPORProbe{AllFound: true}
	for _, g := range gated {
		b := protocols.MustByName(g.name, true)
		r := DPORBenchProbe{Workload: b.ID(), ScheduleBudget: g.budget}
		base := sct.Options{
			Iterations:     g.budget,
			MaxSteps:       b.MaxSteps,
			LivelockAsBug:  b.LivelockAsBug,
			StopOnFirstBug: true,
		}
		rndOpts := base
		rndOpts.Strategy = sct.NewRandom(seed)
		rnd := sct.Run(b.SetupMonitored(), rndOpts)
		if r.FoundRandom = rnd.BugFound(); r.FoundRandom {
			r.RandomSchedules = rnd.FirstBugIteration + 1
		}
		dpOpts := base
		dpOpts.Strategy = sct.NewDPOR()
		dpOpts.StateCache = true
		dp := sct.Run(b.SetupMonitored(), dpOpts)
		r.FoundDPOR = dp.BugFound()
		r.DPORSchedules = dp.Iterations
		r.PrunedIterations = dp.PrunedIterations
		r.DistinctStates = dp.DistinctStates
		if r.FoundRandom && r.FoundDPOR && r.RandomSchedules > 0 {
			r.Ratio = float64(r.DPORSchedules) / float64(r.RandomSchedules)
		}
		if !r.FoundRandom || !r.FoundDPOR {
			p.AllFound = false
		}
		if r.Ratio > p.WorstRatio {
			p.WorstRatio = r.Ratio
		}
		p.Benchmarks = append(p.Benchmarks, r)
	}
	return p
}

// probeStateCache runs DPOR+cache keep-going over a fixed attempt budget on
// the default protocol and reports the cache hit rate and distinct-state
// discovery throughput.
func probeStateCache() StateCacheProbe {
	b := protocols.MustByName("TwoPhaseCommit", true)
	const budget = 2000
	rep := sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:   sct.NewDPOR(),
		Iterations: budget,
		MaxSteps:   b.MaxSteps,
		StateCache: true,
	})
	p := StateCacheProbe{
		Workload:       b.ID(),
		AttemptBudget:  budget,
		Explored:       rep.Iterations,
		Pruned:         rep.PrunedIterations,
		DistinctStates: rep.DistinctStates,
		ReplayedShare:  rep.ReplayedShare(),
	}
	if attempts := p.Explored + p.Pruned; attempts > 0 {
		p.PrunedPercent = 100 * float64(p.Pruned) / float64(attempts)
	}
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		p.StatesPerSec = float64(p.DistinctStates) / secs
	}
	return p
}

// probeResume runs the journal subsystem's acceptance scenario under the
// perf artifact: a campaign split into two slices around a durable journal
// vs one uninterrupted run, all sequential with the same seed.
func probeResume(benchmark string, seed uint64) (ResumeProbe, error) {
	b := protocols.MustByName(benchmark, true)
	const budget, split = 400, 150
	p := ResumeProbe{Workload: b.ID(), ScheduleBudget: budget, SplitAt: split}

	solo := sct.Run(b.Setup, sct.Options{
		Strategy: sct.NewRandom(seed), Iterations: budget, MaxSteps: b.MaxSteps,
	})
	p.DistinctSolo, p.BuggySolo = solo.DistinctSchedules, solo.BuggyIterations

	dir, err := os.MkdirTemp("", "psharp-resume-probe-*")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	meta := journal.Meta{
		Benchmark: b.ID(), Strategy: "random", Seed: seed,
		Workers: 1, ShardCount: 1, MaxSteps: b.MaxSteps,
	}
	first, err := journal.Create(dir, meta, journal.Options{})
	if err != nil {
		return p, err
	}
	sct.Run(b.Setup, sct.Options{
		Strategy: sct.NewRandom(seed), Iterations: split, MaxSteps: b.MaxSteps,
		Journal: first,
	})
	if err := first.Close(); err != nil {
		return p, err
	}
	second, err := journal.Resume(dir, meta, journal.Options{})
	if err != nil {
		return p, err
	}
	resumed := sct.Run(b.Setup, sct.Options{
		Strategy: sct.NewRandom(seed), Iterations: budget, MaxSteps: b.MaxSteps,
		Journal: second,
	})
	if err := second.Close(); err != nil {
		return p, err
	}
	p.DistinctResumed, p.BuggyResumed = resumed.DistinctSchedules, resumed.BuggyIterations
	p.ResumedSliceIterations = resumed.Iterations - split // merged counter minus the journaled baseline
	p.PopulationsMatch = p.DistinctResumed == p.DistinctSolo &&
		p.BuggyResumed == p.BuggySolo &&
		p.ResumedSliceIterations == budget-split
	return p, nil
}

// probeTelemetryOverhead runs the same budget through sct.Run twice — with
// and without a Telemetry accumulator — and reports allocations per
// iteration for each. The per-run fixed cost (harness construction, first
// iterations) is identical on both sides, so the delta isolates what the
// observability layer spends.
func probeTelemetryOverhead(o PerfProbeOptions, setup func(*psharp.Runtime), maxSteps int) TelemetryOverheadProbe {
	iters := 8 * o.AllocRuns
	measure := func(tel *sct.Telemetry) float64 {
		run := func() {
			sct.Run(setup, sct.Options{
				Strategy:   sct.NewRandom(o.Seed),
				Iterations: iters,
				MaxSteps:   maxSteps,
				Telemetry:  tel,
			})
		}
		run() // warm global pools before measuring
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(iters)
	}
	p := TelemetryOverheadProbe{Workload: o.Benchmark}
	p.Plain = measure(nil)
	p.Telemetry = measure(sct.NewTelemetry(0))
	p.DeltaAllocs = p.Telemetry - p.Plain
	return p
}

// probeInterpCoverage executes every non-racy Table 1 benchmark under the
// interpreter for seeds random schedules each, with coverage attached, and
// aggregates covered vs declared machine transitions across the corpus.
// Coverage is accumulated per program, not globally, because machine and
// state names repeat across benchmarks.
func probeInterpCoverage(seeds int) (InterpCoverageProbe, error) {
	p := InterpCoverageProbe{Seeds: seeds}
	for _, b := range benchsrc.All() {
		prog, err := benchsrc.Source(b.Name, false)
		if err != nil {
			return p, err
		}
		var cov obs.StateEventCoverage
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			out := interp.Run(prog, prog.Machines[0].Name, interp.Options{Seed: seed, Coverage: &cov})
			if out.Err != nil {
				return p, fmt.Errorf("tables: interp coverage: %s seed %d: %w", b.Name, seed, out.Err)
			}
		}
		p.Benchmarks++
		p.DeclaredTransitions += interp.DeclaredTransitions(prog)
		p.CoveredTransitions += cov.Distinct()
	}
	if p.DeclaredTransitions > 0 {
		p.CoveredPercent = 100 * float64(p.CoveredTransitions) / float64(p.DeclaredTransitions)
	}
	return p, nil
}

// probeInterpPerf times the same seeded .psl schedules under both engines
// and reports corpus-wide throughput. Each program is run once per engine
// before timing so per-Program compilation (schemas, intern tables,
// bytecode) happens outside the measured region, matching how repeated
// exploration amortizes it.
func probeInterpPerf(seeds int) (InterpPerfProbe, error) {
	p := InterpPerfProbe{Seeds: seeds}
	run := func(prog *lang.Program, main string, engine interp.Engine) (int64, time.Duration, error) {
		// Each engine's region is timed three times and the minimum kept:
		// the probe shares a core with the surrounding harness, and min-of-N
		// rejects scheduler noise bursts symmetrically for both engines.
		var steps int64
		best := time.Duration(0)
		for rep := 0; rep < 5; rep++ {
			// Start each timed region with a clean heap so one engine's
			// garbage (the walker allocates heavily by design) is not
			// billed to the other.
			runtime.GC()
			start := time.Now()
			steps = 0
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				out := interp.Run(prog, main, interp.Options{Engine: engine, Seed: seed})
				if out.Err != nil {
					return 0, 0, fmt.Errorf("tables: interp perf: %s seed %d: %w", main, seed, out.Err)
				}
				steps += int64(out.Steps)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return steps, best, nil
	}
	var walkTime, bcTime time.Duration
	for _, b := range benchsrc.All() {
		prog, err := benchsrc.Source(b.Name, false)
		if err != nil {
			return p, err
		}
		main := prog.Machines[0].Name
		// Warm both engines' per-Program caches before timing.
		interp.Run(prog, main, interp.Options{Engine: interp.EngineWalk, Seed: 1})
		interp.Run(prog, main, interp.Options{Engine: interp.EngineBytecode, Seed: 1})
		_, wd, err := run(prog, main, interp.EngineWalk)
		if err != nil {
			return p, err
		}
		walkTime += wd
		steps, bd, err := run(prog, main, interp.EngineBytecode)
		if err != nil {
			return p, err
		}
		bcTime += bd
		p.Benchmarks++
		p.Steps += steps
	}
	schedules := float64(p.Benchmarks * seeds)
	if walkTime > 0 {
		p.WalkSchedulesPerSec = schedules / walkTime.Seconds()
	}
	if bcTime > 0 {
		p.BytecodeSchedulesPerSec = schedules / bcTime.Seconds()
	}
	if p.WalkSchedulesPerSec > 0 {
		p.Speedup = p.BytecodeSchedulesPerSec / p.WalkSchedulesPerSec
	}
	return p, nil
}

// WritePerfReport writes rep as indented JSON to path (the BENCH_sct.json
// artifact).
func WritePerfReport(path string, rep PerfReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// probeAllocs measures one workload through both iteration entry points.
func probeAllocs(name string, setup func(*psharp.Runtime), cfg psharp.TestConfig, o PerfProbeOptions) AllocProbe {
	p := AllocProbe{Workload: name}
	oneshotStrategy := sct.NewRandom(o.Seed)
	iter := 0
	p.OneShot = allocsPerRun(o.AllocRuns, func() {
		oneshotStrategy.PrepareIteration(iter)
		iter++
		c := cfg
		c.Strategy = oneshotStrategy
		psharp.RunTest(setup, c)
	})
	p.Pooled = pooledAllocs(setup, cfg, o)
	if p.OneShot > 0 {
		p.SavedPercent = 100 * (1 - p.Pooled/p.OneShot)
	}
	return p
}

// pooledAllocs measures steady-state allocations per iteration through a
// warmed pooled harness built with opts.
func pooledAllocs(setup func(*psharp.Runtime), cfg psharp.TestConfig, o PerfProbeOptions, opts ...psharp.Option) float64 {
	h := psharp.NewTestHarness(setup, opts...)
	defer h.Close()
	strategy := sct.NewRandom(o.Seed)
	iter := 0
	return allocsPerRun(o.AllocRuns, func() {
		strategy.PrepareIteration(iter)
		iter++
		c := cfg
		c.Strategy = strategy
		h.Run(c)
	})
}

// relaySetup builds the synthetic hot-path workload: a ring of machines
// passing one preallocated token until its TTL runs out. The program itself
// allocates almost nothing per step, so the probe isolates what the runtime
// spends per iteration and per scheduling point.
func relaySetup(machines, ttl int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Relay", func() psharp.Machine {
			var next psharp.MachineID
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Run").
					OnEventDo(&relayWire{}, func(ctx *psharp.Context, ev psharp.Event) {
						next = ev.(*relayWire).Next
					}).
					OnEventDo(&relayToken{}, func(ctx *psharp.Context, ev psharp.Event) {
						t := ev.(*relayToken)
						if t.TTL == 0 {
							ctx.Halt()
							return
						}
						t.TTL--
						ctx.Send(next, t)
					})
			})
		})
		ids := make([]psharp.MachineID, machines)
		for i := range ids {
			ids[i] = r.MustCreate("Relay", nil)
		}
		for i, id := range ids {
			if err := r.SendEvent(id, &relayWire{Next: ids[(i+1)%machines]}); err != nil {
				panic(err)
			}
		}
		if err := r.SendEvent(ids[0], &relayToken{TTL: ttl}); err != nil {
			panic(err)
		}
	}
}

type relayWire struct {
	psharp.EventBase
	Next psharp.MachineID
}

type relayToken struct {
	psharp.EventBase
	TTL int
}

// allocsPerRun measures the mean heap allocations of f over runs calls
// after three untimed warm-up calls (so pools and reusable buffers reach
// steady state), like testing.AllocsPerRun but without importing the
// testing package into a non-test build.
func allocsPerRun(runs int, f func()) float64 {
	for i := 0; i < 3; i++ {
		f() // warm pools and grow reusable buffers before measuring
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

package sct

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/journal"
)

// Strategy is the whole contract between the engine and a scheduling
// strategy. Decide (psharp.DecisionStrategy) is what the controller calls at
// every nondeterminism point; the three psharp.Strategy methods answer the
// same queries one kind at a time for callers that drive a strategy by hand.
type Strategy interface {
	psharp.Strategy
	psharp.DecisionStrategy
	// PrepareIteration is called before iteration iter (0-based); returning
	// false stops the engine because the search space is exhausted.
	PrepareIteration(iter int) bool
	// CloneForWorker returns an independent instance for worker (0-based)
	// out of workers: clones must not share mutable state or cache lines
	// (see cacheLinePad), and the union of the clones' iteration streams
	// should partition the search space deterministically (randomized
	// strategies shard their seed streams, the depth-first search shards
	// the schedule tree by its first decision).
	CloneForWorker(worker, workers int) Strategy
	// SaveCursor serializes the strategy's cross-iteration state after the
	// most recently completed iteration, for the journal; the engine calls
	// it on every journal flush, so it must be cheap. A strategy whose
	// position is a function of the iteration index alone — one that
	// reseeds per global iteration — has none and returns nil.
	SaveCursor() []byte
	// LoadCursor restores state saved by SaveCursor on a strategy
	// configured identically (same seeds, bounds and worker shard).
	LoadCursor(cursor []byte) error
}

// cacheLinePad ends every strategy type that a worker writes at each
// decision, as sync.Pool pads its per-P state. RunParallel clones a
// strategy for all its workers on one goroutine, and ParsePortfolio builds
// its members back to back, so sibling instances come out of one span side
// by side: without the pad, the last words one worker writes would share a
// cache line with the first words of the next, and every decision of one
// worker would invalidate the other's line. The pad is a type's last field,
// so it covers an instance however it was made.
type cacheLinePad struct{ _ [64]byte }

// Options configures an engine run.
type Options struct {
	// Strategy drives scheduling. Required.
	Strategy Strategy
	// Iterations caps the number of schedules to explore (the paper uses
	// 10,000). Required (must be > 0).
	Iterations int
	// Timeout caps total wall-clock time (the paper uses 5 minutes);
	// zero means no time cap. The deadline is hard: a timer armed when the
	// run starts sets the stop flag every scheduling point polls, so even a
	// single runaway iteration cannot overrun the budget, and no scheduling
	// point reads the clock.
	Timeout time.Duration
	// MaxSteps bounds scheduling decisions per iteration; 0 = unbounded.
	MaxSteps int
	// StopOnFirstBug ends the run at the first buggy schedule (as the paper
	// does for CHESS and DFS measurements). When false the engine keeps
	// exploring and counts buggy schedules (as the paper does to compute
	// the random scheduler's %Buggy column).
	StopOnFirstBug bool
	// LivelockAsBug treats hitting MaxSteps as a liveness bug.
	LivelockAsBug bool
	// ChessLike adds CHESS-granularity scheduling points (Table 2 baseline).
	ChessLike bool
	// RaceDetect enables the happens-before race detector (RD-on).
	RaceDetect bool
	// Progress, if non-nil, receives a typed Progress snapshot every
	// ProgressEvery iterations of each worker (ProgressEvery <= 0 disables
	// emission). Calls are serialized behind a run-wide mutex, so one
	// ProgressFunc safely serves every RunParallel worker. ProgressText and
	// ProgressJSONL adapt it back to an io.Writer.
	Progress      ProgressFunc
	ProgressEvery int
	// Telemetry, if non-nil, accumulates campaign metrics — depth
	// histograms, state-transition coverage, bug census, and growth curves
	// over wall-clock time — across every iteration and worker of the run.
	// One accumulator can also be shared across runs.
	Telemetry *Telemetry
	// Journal, if non-nil, makes the campaign durable and resumable: workers
	// append their newly-distinct schedule fingerprints and strategy cursors
	// to the crash-safe journal in batches of journalFlushEvery iterations,
	// the Tally merges across resumed runs, and a journal opened with
	// journal.Resume preloads the prior runs' state so covered schedules are
	// never re-executed. Journal IO errors are latched (Journal.Err), never
	// propagated into the exploration loop. See "Option compatibility" in
	// the package docs.
	Journal *journal.Campaign
	// Stop, when non-nil, requests cooperative cancellation when it is
	// closed: workers notice at the next scheduling point, the run winds
	// down normally (final journal flush, telemetry point, merged Report
	// with Interrupted set). This is how psharp-test turns SIGINT/SIGTERM
	// into a clean partial campaign instead of lost work.
	Stop <-chan struct{}
	// StateCache attaches a hashed global-state cache shared by every
	// worker of the run: iterations that revisit an already-covered global
	// state are cut short (pruned) instead of re-exploring its subtree.
	// Pruned iterations are reported separately (Tally.PrunedIterations)
	// and never count toward Iterations or DistinctSchedules. See "Option
	// compatibility" in the package docs for what it combines with.
	StateCache bool
	// Faults configures fault-injection nondeterminism. When Faults.Budget
	// is positive, the engine wraps Strategy in a FaultInjector (sharded
	// per worker under RunParallel) and enables fault queries on every
	// iteration, so schedules explore crashes, drops, duplicates and
	// reorders on top of interleavings. Zero Budget leaves the run
	// fault-free.
	Faults FaultOptions
}

// Report aggregates an engine run: the Tally of its iterations — the columns
// of the paper's Table 2 — and what is not a count.
type Report struct {
	// Tally counts the run's iterations; campaign-cumulative under
	// Options.Journal.
	Tally
	// DistinctSchedules counts unique decision traces among the explored
	// schedules (by fingerprint); under RunParallel the count is merged
	// across workers, so duplicated work is visible as Iterations minus
	// DistinctSchedules.
	DistinctSchedules int
	// DistinctStates is the number of distinct hashed global states the
	// run visited; 0 when the state cache was off. This process's only: the
	// state cache is not journaled, so a resumed campaign's count restarts.
	DistinctStates int
	// FirstBug is the first failure found (nil if none).
	FirstBug *psharp.Bug
	// FirstBugIteration is the 0-based iteration of the first failure. Under
	// RunParallel it is the global iteration index (see ParallelReport).
	FirstBugIteration int
	// FirstBugTrace deterministically replays the first failure.
	FirstBugTrace *psharp.Trace
	// Exhausted reports that the strategy completed its search space.
	Exhausted bool
	// Interrupted reports that the run ended early — an external stop
	// (Options.Stop) or the hard Timeout deadline — with budget left
	// unexplored. A journaled interrupted run resumes where it stopped.
	Interrupted bool
	// Elapsed is total wall-clock time.
	Elapsed time.Duration
	// Races collects distinct race reports from RD-on iterations.
	Races []string
	// Err is non-nil when the run stopped because the program cannot be
	// explored as configured (psharp.IterationResult.Err): with StateCache
	// set, a *psharp.StateError naming the machine state that cannot be
	// hashed. The counters cover the iterations completed before it. It is
	// also how RunParallel refuses to resume a Journal whose cursor a worker's
	// strategy cannot load: no iteration runs.
	Err error
	// LivenessUnchecked is the run's first
	// psharp.IterationResult.LivenessUnchecked: nil if no lasso went unchecked.
	LivenessUnchecked error
}

// BugFound reports whether any iteration failed.
func (r *Report) BugFound() bool { return r.FirstBug != nil }

// SchedulesPerSecond is the paper's #Sch/sec throughput metric.
func (r *Report) SchedulesPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Iterations) / r.Elapsed.Seconds()
}

// PercentBuggy is the paper's %Buggy metric for the random scheduler.
func (r *Report) PercentBuggy() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return 100 * float64(r.BuggyIterations) / float64(r.Iterations)
}

// String summarizes the report in one line.
func (r *Report) String() string {
	bug := "no bug"
	if r.FirstBug != nil {
		bug = fmt.Sprintf("bug at iteration %d: %v", r.FirstBugIteration, r.FirstBug)
	}
	mark := ""
	if r.Interrupted {
		mark = " [interrupted]"
	}
	cache, shares := "", r.Shares()
	if r.PrunedIterations > 0 || r.ReplayedPoints > 0 {
		cache = fmt.Sprintf(", %d pruned (pruned_points=%d replayed_points=%d, %.1f%% of %d executed)",
			r.PrunedIterations, r.PrunedPoints, r.ReplayedPoints, 100*shares.ReplayedShare,
			r.TotalSchedulingPoints+r.PrunedPoints)
	}
	if r.RestoredPoints > 0 {
		cache += fmt.Sprintf(", restored_points=%d (%.1f%% not re-executed)", r.RestoredPoints, 100*shares.RestoredShare)
	}
	return fmt.Sprintf("%d schedules (%d distinct), %d buggy (%.1f%%), maxSP=%d, %.1f sch/sec%s, %s%s",
		r.Iterations, r.DistinctSchedules, r.BuggyIterations, r.PercentBuggy(), r.MaxSchedulingPoints,
		r.SchedulesPerSecond(), cache, bug, mark)
}

// raceSet deduplicates race reports in O(1) per insert while preserving
// first-seen order; races are merged from many workers, so this is on the
// parallel hot path.
type raceSet struct {
	seen map[string]struct{}
	list []string
}

func (s *raceSet) add(race string) {
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	}
	if _, dup := s.seen[race]; dup {
		return
	}
	s.seen[race] = struct{}{}
	s.list = append(s.list, race)
}

func (s *raceSet) addAll(races []string) {
	for _, r := range races {
		s.add(r)
	}
}

// shared is the state one engine run's workers cooperate through.
type shared struct {
	opts     Options
	start    time.Time
	deadline time.Time // zero when Timeout is unset
	// workers are the run's workers; each counts its iterations into its
	// own tally, and base holds what the campaign counted before this run
	// (the journal's counters record; zero without a journal). The campaign
	// so far is tally(): base ⊕ Σ workers, mid-run as in the final Report.
	workers []worker
	base    Tally

	// stop is the cooperative cancellation flag: StopOnFirstBug, the hard
	// deadline's timer (see watchStop), and external aborts set it; workers
	// poll it between iterations and (via TestConfig.Interrupt) at every
	// scheduling point.
	stop atomic.Bool
	// external records that stop was set by Options.Stop: the run counts as
	// interrupted regardless of how much budget it had consumed.
	external atomic.Bool
	// baseElapsed is the cumulative wall-clock time of the prior journaled
	// runs of this campaign (zero without a journal); telemetry and
	// checkpoints report base+current so curves span resumes.
	baseElapsed time.Duration

	// cache is the shared state cache, nil unless Options.StateCache is set.
	cache *stateCache

	fingerprints fingerprintSet

	// progressMu serializes Options.Progress across workers.
	progressMu sync.Mutex
	// wg waits for the workers started beside the caller's own.
	wg sync.WaitGroup
}

func newShared(opts Options, start time.Time, workers []worker) *shared {
	sh := &shared{opts: opts, start: start, workers: workers}
	if opts.Timeout > 0 {
		sh.deadline = start.Add(opts.Timeout)
	}
	if opts.StateCache {
		sh.cache = new(stateCache)
	}
	if j := opts.Journal; j != nil {
		// Preload the campaign's journaled fingerprints (this shard's and
		// every peer's) so already-covered schedules count as duplicates, and
		// the prior runs' tally so every view reports campaign totals.
		for _, fp := range j.Fingerprints() {
			sh.fingerprints.insert(fp)
		}
		base := j.Counters()
		sh.base.load(&base)
		sh.baseElapsed = time.Duration(base.ElapsedMicros) * time.Microsecond
	}
	if opts.Telemetry != nil {
		opts.Telemetry.begin(sh)
	}
	return sh
}

// tally is the campaign's count so far. Safe to call concurrently with the
// workers: each one's tally is read under the lock it is counted under.
func (sh *shared) tally() Tally {
	t := sh.base
	for i := range sh.workers {
		w := &sh.workers[i]
		w.mu.Lock()
		t.Merge(w.tally)
		w.mu.Unlock()
	}
	return t
}

// elapsed is the campaign's wall-clock time so far, prior journaled runs
// included.
func (sh *shared) elapsed() time.Duration { return sh.baseElapsed + time.Since(sh.start) }

// watchStop wires Options.Stop and the hard deadline into the cooperative
// cancellation flag: a watcher goroutine for the one, a timer for the other.
// The returned release func must be called when the run ends so the watcher
// exits and the timer is stopped.
func (sh *shared) watchStop() (release func()) {
	var timer *time.Timer
	if !sh.deadline.IsZero() {
		timer = time.AfterFunc(time.Until(sh.deadline), func() { sh.stop.Store(true) })
	}
	var done chan struct{}
	if sh.opts.Stop != nil {
		done = make(chan struct{})
		go func() {
			select {
			case <-sh.opts.Stop:
				sh.external.Store(true)
				sh.stop.Store(true)
			case <-done:
			}
		}()
	}
	return func() {
		if timer != nil {
			timer.Stop()
		}
		if done != nil {
			close(done)
		}
	}
}

// interruptedOutcome classifies a finished run: true when it ended on an
// external stop or on the hard deadline with planned iterations still
// unexplored. Complete runs, exhausted strategies and deliberate
// StopOnFirstBug stops are not interruptions. rep is the workers' merged
// report, before any journaled baseline: it counts this run only, and planned
// is this run's residual budget.
func (sh *shared) interruptedOutcome(rep *Report, planned int) bool {
	if sh.external.Load() {
		return true
	}
	if !sh.expired() || rep.Exhausted {
		return false
	}
	if sh.opts.StopOnFirstBug && rep.FirstBug != nil {
		return false
	}
	// Pruned iterations consumed budget too: a deadline that fired after
	// the last planned iteration is not an interruption.
	return rep.Iterations+rep.PrunedIterations < planned
}

// emitProgress builds a campaign-wide progress snapshot and hands it to the
// configured ProgressFunc, serialized across workers.
func (sh *shared) emitProgress(w *worker, workerIters int) {
	t := sh.tally()
	p := Progress{
		Worker:           w.id,
		Workers:          len(sh.workers),
		Strategy:         w.label,
		WorkerIterations: workerIters,
		Iterations:       int64(t.Iterations),
		Budget:           sh.opts.Iterations,
		Buggy:            int64(t.BuggyIterations),
		Distinct:         int64(sh.fingerprints.size()),
		Pruned:           int64(t.PrunedIterations),
		DistinctStates:   int64(sh.cache.size()),
		Elapsed:          time.Since(sh.start),
	}
	sh.progressMu.Lock()
	sh.opts.Progress(p)
	sh.progressMu.Unlock()
}

// expired reports whether the hard deadline has passed. It reads the clock,
// so only interruptedOutcome calls it, once a run has ended; the workers
// poll the stop flag the deadline's timer sets.
func (sh *shared) expired() bool {
	return !sh.deadline.IsZero() && !time.Now().Before(sh.deadline)
}

// worker identifies one exploration worker and its static shard of the
// global iteration space: the worker runs local iterations start..quota-1,
// and local iteration i is global iteration offset + i*stride (the identity
// mapping for a lone worker).
type worker struct {
	id       int
	strategy Strategy
	label    string // strategy name for sub-reports and progress snapshots
	offset   int
	stride   int
	quota    int
	// start is the local iteration to begin at: 0 for fresh runs, the
	// journaled completed count when resuming (the worker→iteration mapping
	// is position-independent, so restarting the stream there is exact).
	start int

	// tally counts the worker's iterations of this run. The worker writes it
	// under mu, once per iteration; shared.tally reads it under mu.
	mu    sync.Mutex
	tally Tally
}

// runWorker is the engine's exploration loop. Every worker owns a
// psharp.TestHarness, so runtime machinery (machine instances, coroutines,
// queues, trace buffers) is recycled across its iterations instead of
// rebuilt.
func runWorker(setup func(*psharp.Runtime), sh *shared, w *worker) Report {
	opts := sh.opts
	var rep Report
	var races raceSet
	start := time.Now()
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	cfg := psharp.TestConfig{
		Strategy:      w.strategy,
		MaxSteps:      opts.MaxSteps,
		LivelockAsBug: opts.LivelockAsBug,
		ChessLike:     opts.ChessLike,
		RaceDetect:    opts.RaceDetect,
		Interrupt:     sh.stop.Load,
	}
	if opts.Telemetry != nil {
		cfg.Coverage = opts.Telemetry.Coverage()
	}
	if opts.Faults.Budget > 0 {
		cfg.Faults = &psharp.FaultConfig{Immune: opts.Faults.Immune}
	}
	if sh.cache != nil {
		cfg.StateCache = sh.cache
	}
	var jw *journalWriter
	if opts.Journal != nil {
		jw = newJournalWriter(sh, w)
	}
	completed := w.start
	for local := w.start; local < w.quota; local++ {
		if sh.stop.Load() {
			break
		}
		if !w.strategy.PrepareIteration(local) {
			rep.Exhausted = true
			break
		}
		res := h.Run(cfg)
		if res.Err != nil {
			// Every iteration would end this way: the campaign is over.
			rep.Err = res.Err
			sh.stop.Store(true)
			break
		}
		if res.LivenessUnchecked != nil && rep.LivenessUnchecked == nil {
			rep.LivenessUnchecked = res.LivenessUnchecked
		}
		if res.Interrupted {
			break // partial schedule: not counted
		}
		w.mu.Lock()
		w.tally.Count(&res)
		w.mu.Unlock()
		completed = local + 1
		if res.Pruned {
			// Nothing new was explored, so there is no fingerprint to keep,
			// but the journal position advances — on resume the strategy
			// re-derives the same prune.
			if jw != nil {
				jw.note(0, false, completed)
			}
			continue
		}
		fp := fingerprintTrace(res.Trace)
		isNew := sh.fingerprints.insert(fp)
		if isNew {
			rep.DistinctSchedules++
		}
		if jw != nil {
			jw.note(fp, isNew, completed)
		}
		races.addAll(res.Races)
		if res.Bug != nil && rep.FirstBug == nil {
			rep.FirstBug = res.Bug
			rep.FirstBugIteration = w.offset + local*w.stride
			// The harness reuses its trace buffer; detach the copy we keep.
			rep.FirstBugTrace = res.Trace.Clone()
		}
		if tel := opts.Telemetry; tel != nil {
			tel.record(&res)
		}
		if res.Bug != nil && opts.StopOnFirstBug {
			sh.stop.Store(true)
			break
		}
		if tel := opts.Telemetry; tel != nil {
			tel.maybeSample()
		}
		if opts.Progress != nil && opts.ProgressEvery > 0 && (local+1)%opts.ProgressEvery == 0 {
			sh.emitProgress(w, local+1)
		}
	}
	if jw != nil {
		// The final flush makes every completed iteration durable, whatever
		// ended the loop (quota, deadline, external stop, first bug).
		jw.flush(completed)
	}
	rep.Tally = w.tally
	rep.Races = races.list
	rep.Elapsed = time.Since(start)
	return rep
}

// Run is RunParallel with one worker, on the caller's goroutine: it explores
// schedules of the program constructed by setup one at a time until the
// iteration budget, the time budget, or the strategy's search space is
// exhausted — or a bug is found, if StopOnFirstBug is set.
func Run(setup func(*psharp.Runtime), opts Options) Report {
	return RunParallel(setup, ParallelOptions{Options: opts, Workers: 1}).Report
}

// ReplayTrace re-executes a recorded trace against the program and returns
// the iteration result; used to confirm that a found bug reproduces. The
// cfg's Strategy is replaced by the replay strategy; all other knobs (depth
// bound, livelock reporting, race detection) apply as given so a livelock
// trace reproduces as a livelock.
// If the trace carries fault decisions and cfg.Faults is nil, fault queries
// are enabled automatically: the recorded actions are self-contained, so
// replaying a crash schedule needs no knowledge of the original fault
// configuration.
func ReplayTrace(setup func(*psharp.Runtime), trace *psharp.Trace, cfg psharp.TestConfig) psharp.IterationResult {
	rep := NewReplay(trace)
	rep.PrepareIteration(0)
	cfg.Strategy = rep
	if cfg.Faults == nil && trace.HasFaultDecisions() {
		cfg.Faults = &psharp.FaultConfig{}
	}
	return psharp.RunTest(setup, cfg)
}

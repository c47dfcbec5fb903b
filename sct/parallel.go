package sct

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/psharp-go/psharp"
)

// ParallelOptions configures RunParallel.
type ParallelOptions struct {
	// Options carries the common exploration knobs. When Portfolio is nil,
	// every worker of several receives Options.Strategy's
	// CloneForWorker(w, Workers), so seeds and bound parameters shard
	// deterministically. Iterations is the *global* budget, divided across
	// workers (worker w explores the global iterations congruent to w modulo
	// Workers).
	Options
	// Workers is the number of concurrent exploration workers; 0 selects
	// GOMAXPROCS (see WorkerCount). Run is the Workers=1 call.
	Workers int
	// Portfolio, if non-nil, assigns heterogeneous strategies to workers
	// round-robin and overrides Options.Strategy.
	Portfolio *Portfolio
	// ShardIndex/ShardCount split one campaign across ShardCount processes:
	// this process runs global workers ShardIndex*Workers ..
	// (ShardIndex+1)*Workers-1 out of Workers*ShardCount, so the N processes
	// jointly explore exactly the population one process with N×Workers
	// workers would. A zero ShardCount means unsharded. Shards pair with
	// Options.Journal (each process journals its own shard file in the
	// shared campaign directory; see the journal package) but also work
	// without one as a pure budget split.
	ShardIndex int
	ShardCount int
}

// WorkerReport is one worker's sub-report of a parallel run.
type WorkerReport struct {
	// Worker is the 0-based worker id.
	Worker int
	// Strategy names the strategy instance the worker ran.
	Strategy string
	// Report holds the worker's own statistics. Its FirstBugIteration is a
	// global iteration index (see ParallelReport.Report).
	Report Report
}

// ParallelReport is the merged outcome of a parallel run.
//
// Global iteration indexing: worker w out of n explores global iterations
// {w, w+n, w+2n, ...}, so a homogeneous sharded run explores exactly the
// same schedule population as a sequential run with the same seed and
// budget, just partitioned across workers. FirstBugIteration in the merged
// Report is the smallest global index at which any worker found a bug;
// for full (non-early-stopped) runs it is therefore deterministic and equal
// to the sequential run's.
type ParallelReport struct {
	// Report is the merged, cross-worker aggregate.
	Report
	// Workers holds per-worker sub-reports, indexed by worker id.
	Workers []WorkerReport
}

// shards is ShardCount with its zero value resolved.
func (o ParallelOptions) shards() int { return max(o.ShardCount, 1) }

// WorkerCount resolves how many workers RunParallel starts in this process:
// Workers, or GOMAXPROCS when that is not positive, and for an unsharded
// run never more than Iterations (no worker starts with an empty quota).
func (o ParallelOptions) WorkerCount() int {
	n := o.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if o.shards() == 1 {
		n = min(n, o.Iterations)
	}
	return n
}

// slot says which base strategy global worker gw of n runs, under which
// label, and as which of how many workers sharing it: a portfolio deals
// its members round-robin, a plain Strategy is shared by all n.
func (o ParallelOptions) slot(gw, n int) (base Strategy, label string, rank, sharing int) {
	if p := o.Portfolio; p != nil {
		k := len(p.members)
		m := p.members[gw%k]
		return m.Strategy, m.Name, gw / k, shardQuota(n, gw%k, k)
	}
	return o.Strategy, strategyName(o.Strategy), gw, n
}

// Validate is the one rulebook of option compatibility (see the package
// docs, "Option compatibility"): it returns the reason RunParallel — and
// so Run — would refuse the options, or nil. Strategy rules are judged per
// resolved worker, so a portfolio member is held to exactly what the same
// strategy is held to on its own. The text carries no package prefix:
// RunParallel panics with "sct: " + text, psharp-test exits 2 with
// "psharp-test: " + text.
func (o ParallelOptions) Validate() error {
	shards := o.shards()
	switch {
	case o.Iterations <= 0:
		return errors.New("Iterations must be positive")
	case o.Strategy == nil && o.Portfolio == nil:
		return errors.New("a Strategy or a Portfolio is required")
	case o.ShardIndex < 0 || o.ShardIndex >= shards:
		return fmt.Errorf("ShardIndex %d out of range [0,%d)", o.ShardIndex, shards)
	case o.StateCache && o.Faults.Budget > 0:
		return errors.New("the state cache cannot be combined with fault injection: injected faults mutate state outside the hashed footprint")
	}
	n := o.WorkerCount()
	for w := 0; w < n; w++ {
		base, label, _, _ := o.slot(o.ShardIndex*n+w, n*shards)
		info := infoOf(base)
		switch {
		case info.replays && o.Faults.Budget > 0:
			return fmt.Errorf("%s cannot be combined with fault injection: a depth-first search replays the previous iteration's prefix, and faults are drawn afresh each iteration, not enumerated", label)
		case o.StateCache && info.bounded:
			return fmt.Errorf("the state cache cannot be combined with %s: a state first reached with fewer delays left to spend would prune, when it is reached again with more, the schedules that need them", label)
		case o.StateCache && !info.replays:
			return fmt.Errorf("the state cache requires every worker to run a depth-first strategy (dfs or dpor), not %s: pruning revisited states only preserves coverage under depth-first enumeration", label)
		}
	}
	return nil
}

// RunParallel is the engine: opts.WorkerCount() workers, each running an
// independent strategy instance over its shard of the global iteration
// budget, explore schedules of the program constructed by setup until the
// budget, the time budget or every strategy's search space is exhausted — or
// a bug is found, if StopOnFirstBug is set — and their statistics merge into
// one Report. Worker 0 runs on the caller's goroutine, so Run starts none.
// Shards are static, so a full run is deterministic — unless several workers
// share a StateCache, where which of them prunes a revisited state depends on
// which reached it first. Cancellation is cooperative and prompt:
// StopOnFirstBug, Options.Stop and the hard Timeout deadline's timer set one
// flag that every worker polls at every scheduling point, so a single long
// iteration cannot keep the run alive. Options that Validate refuses panic
// with its error.
func RunParallel(setup func(*psharp.Runtime), opts ParallelOptions) ParallelReport {
	if err := opts.Validate(); err != nil {
		panic("sct: " + err.Error())
	}
	// Workers are numbered globally across shards: this process runs global
	// workers shardIndex*n .. shardIndex*n+n-1 of n*shards, so seed streams,
	// portfolio assignment and fault streams shard campaign-wide and the
	// processes jointly explore the single-process population.
	n := opts.WorkerCount()
	globalWorkers := n * opts.shards()
	workers := make([]worker, n)
	planned := 0
	for w := range workers {
		gw := opts.ShardIndex*n + w
		strategy, label, rank, sharing := opts.slot(gw, globalWorkers)
		if sharing > 1 {
			strategy = strategy.CloneForWorker(rank, sharing)
		}
		if opts.Faults.Budget > 0 {
			// Wrap after per-worker resolution so the injector's own fault
			// stream shards alongside the inner strategy's seed stream.
			strategy = newFaultInjector(strategy, opts.Faults, gw, globalWorkers)
			label = "faults+" + label
		}
		workers[w] = worker{
			id:       w,
			strategy: strategy,
			label:    label,
			offset:   gw,
			stride:   globalWorkers,
			quota:    shardQuota(opts.Iterations, gw, globalWorkers),
		}
		if opts.Journal != nil {
			if err := restoreCursor(opts.Journal, &workers[w]); err != nil {
				return ParallelReport{Report: Report{Err: err}}
			}
		}
		planned += max(workers[w].quota-workers[w].start, 0)
	}

	start := time.Now()
	sh := newShared(opts.Options, start, workers)
	release := sh.watchStop()
	reports := make([]WorkerReport, n)
	for w := 1; w < n; w++ {
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			sh.work(setup, &workers[w], &reports[w])
		}()
	}
	sh.work(setup, &workers[0], &reports[0])
	sh.wg.Wait()
	release()

	if opts.Telemetry != nil {
		opts.Telemetry.finish()
	}
	out := ParallelReport{Report: mergeReports(reports), Workers: reports}
	out.Interrupted = sh.interruptedOutcome(&out.Report, planned)
	// From here on the report is the campaign's: with a journal, the prior
	// runs' tally, wall-clock time and fingerprints are in it.
	out.Tally = sh.tally()
	out.DistinctSchedules = sh.fingerprints.size()
	out.DistinctStates = sh.cache.size()
	out.Elapsed = sh.elapsed()
	finishJournal(sh, &out.Report)
	return out
}

// work runs one worker to completion and files its sub-report.
func (sh *shared) work(setup func(*psharp.Runtime), w *worker, out *WorkerReport) {
	*out = WorkerReport{Worker: w.id, Strategy: w.label, Report: runWorker(setup, sh, w)}
}

// shardQuota is the number of global iterations in [0, budget) congruent to
// w modulo n.
func shardQuota(budget, w, n int) int {
	q := budget / n
	if w < budget%n {
		q++
	}
	return q
}

// mergeReports folds per-worker reports into the global aggregate. Merging
// in worker order keeps the result deterministic for full runs: a tally's
// sums and maxima are order-insensitive, the first bug is the one with the
// smallest global iteration index, and race reports keep worker-0-first
// ordering.
func mergeReports(workers []WorkerReport) Report {
	var merged Report
	var races raceSet
	exhausted := len(workers) > 0
	for i := range workers {
		rep := &workers[i].Report
		merged.Tally.Merge(rep.Tally)
		if merged.Err == nil {
			merged.Err = rep.Err
		}
		if merged.LivenessUnchecked == nil {
			merged.LivenessUnchecked = rep.LivenessUnchecked
		}
		races.addAll(rep.Races)
		if rep.FirstBug != nil &&
			(merged.FirstBug == nil || rep.FirstBugIteration < merged.FirstBugIteration) {
			merged.FirstBug = rep.FirstBug
			merged.FirstBugIteration = rep.FirstBugIteration
			merged.FirstBugTrace = rep.FirstBugTrace
		}
		exhausted = exhausted && rep.Exhausted
	}
	merged.Exhausted = exhausted
	merged.Races = races.list
	return merged
}

package sct

import (
	"fmt"
	"time"

	"github.com/psharp-go/psharp/journal"
)

// CursorStrategy is a Strategy whose cross-iteration state can be
// journaled and restored, making it resumable mid-search. Strategies that
// reseed per global iteration (Random, RandomFair, PCT, DelayBounding, and
// FaultInjector's fault stream) need no cursor — their position is fully
// determined by the iteration index the engine journals for every worker —
// so only the systematic enumeration implements it directly: DFS and DPOR,
// whose frontier is a schedule-tree stack (under reduction, with the
// backtrack sets and step footprints of its nodes); FaultInjector delegates
// to its inner strategy.
type CursorStrategy interface {
	Strategy
	// SaveCursor serializes the strategy's cross-iteration state after the
	// most recently completed iteration. It must be cheap: the engine calls
	// it on every journal flush.
	SaveCursor() []byte
	// LoadCursor restores state saved by SaveCursor on a strategy
	// configured identically (same seeds, bounds and worker shard).
	LoadCursor(cursor []byte) error
}

// DefaultJournalFlushEvery is the journal batching cadence: each worker
// flushes its newly-distinct fingerprints and cursor once per this many
// completed iterations, keeping journal appends amortized well under one
// allocation per iteration and entirely off the scheduling hot path.
const DefaultJournalFlushEvery = 64

// journalWriter is one worker's batching front end to the shared campaign
// journal.
type journalWriter struct {
	c         *journal.Campaign
	sh        *shared
	strategy  Strategy
	workerKey int // globally unique across shards: the worker's offset
	every     int
	fps       []uint64
	since     int
}

func newJournalWriter(sh *shared, w *worker) *journalWriter {
	every := sh.opts.JournalFlushEvery
	if every <= 0 {
		every = DefaultJournalFlushEvery
	}
	return &journalWriter{
		c:         sh.opts.Journal,
		sh:        sh,
		strategy:  w.strategy,
		workerKey: w.offset,
		every:     every,
		fps:       make([]uint64, 0, every),
	}
}

// note records one completed iteration (completed is the worker's local
// iteration count so far); newly-distinct fingerprints accumulate in a
// preallocated batch that flushes every flush interval.
func (jw *journalWriter) note(fp uint64, isNew bool, completed int) {
	if isNew {
		jw.fps = append(jw.fps, fp)
	}
	jw.since++
	if jw.since >= jw.every {
		jw.flush(completed)
	}
}

// flush journals the pending fingerprint batch and the worker's cursor.
// The campaign layer appends fingerprints before the cursor, so a crash
// between the two re-executes iterations (idempotent on the fingerprint
// set) rather than skipping unjournaled ones.
func (jw *journalWriter) flush(completed int) {
	jw.since = 0
	var blob []byte
	if cs, ok := jw.strategy.(CursorStrategy); ok {
		blob = cs.SaveCursor()
	}
	jw.c.Advance(jw.workerKey, completed, blob, jw.fps)
	jw.fps = jw.fps[:0]
	sh := jw.sh
	covered := int64(0)
	if tel := sh.opts.Telemetry; tel != nil {
		covered = tel.coverage.Distinct()
	}
	jw.c.Checkpoint(journal.Checkpoint{
		ElapsedMicros:      (sh.baseElapsed + time.Since(sh.start)).Microseconds(),
		Iterations:         sh.iterations.Load(),
		DistinctSchedules:  sh.distinct.Load(),
		CoveredTransitions: covered,
	}, false)
}

// restoreCursor loads a worker's journaled position: its completed local
// iteration count (the engine restarts its stream there) and, for
// CursorStrategy strategies, the serialized search frontier. A frontier the
// worker's strategy cannot take up is an error: the campaign cannot go on
// from it.
func restoreCursor(j *journal.Campaign, w *worker) error {
	completed, blob, ok := j.Cursor(w.offset)
	if !ok {
		return nil
	}
	w.start = completed
	if len(blob) == 0 {
		return nil
	}
	cs, ok := w.strategy.(CursorStrategy)
	if !ok {
		return fmt.Errorf("sct: journal holds a cursor blob for worker %d but strategy %T cannot load cursors (was the campaign run with a different strategy?)", w.offset, w.strategy)
	}
	if err := cs.LoadCursor(blob); err != nil {
		return fmt.Errorf("sct: journal cursor for worker %d: %w", w.offset, err)
	}
	return nil
}

// finishJournal merges the journal's prior-run baseline into the report —
// counters stay campaign-cumulative and monotone across resumes — then
// journals the new cumulative counters and a forced final checkpoint so
// the next resume (and the growth curve) picks up exactly here.
func finishJournal(sh *shared, rep *Report) {
	j := sh.opts.Journal
	if j == nil {
		return
	}
	base := j.Counters()
	rep.Iterations += int(base.Iterations)
	rep.BuggyIterations += int(base.BuggyIterations)
	rep.BoundReached += int(base.BoundReached)
	rep.TotalSchedulingPoints += base.TotalSchedulingPoints
	rep.MaxSchedulingPoints = max(rep.MaxSchedulingPoints, int(base.MaxSchedulingPoints))
	rep.MaxMachines = max(rep.MaxMachines, int(base.MaxMachines))
	rep.Faults.Crashes += int(base.Crashes)
	rep.Faults.Restarts += int(base.Restarts)
	rep.Faults.Drops += int(base.Drops)
	rep.Faults.Duplicates += int(base.Duplicates)
	rep.Faults.Reorders += int(base.Reorders)
	rep.Elapsed += time.Duration(base.ElapsedMicros) * time.Microsecond
	// With a journal, distinct schedules are counted against the whole
	// campaign's fingerprint set (preloaded at open), not this run's.
	rep.DistinctSchedules = sh.fingerprints.size()
	j.SaveCounters(journal.Counters{
		Iterations:            int64(rep.Iterations),
		BuggyIterations:       int64(rep.BuggyIterations),
		BoundReached:          int64(rep.BoundReached),
		TotalSchedulingPoints: rep.TotalSchedulingPoints,
		MaxSchedulingPoints:   int64(rep.MaxSchedulingPoints),
		MaxMachines:           int64(rep.MaxMachines),
		Crashes:               int64(rep.Faults.Crashes),
		Restarts:              int64(rep.Faults.Restarts),
		Drops:                 int64(rep.Faults.Drops),
		Duplicates:            int64(rep.Faults.Duplicates),
		Reorders:              int64(rep.Faults.Reorders),
		ElapsedMicros:         rep.Elapsed.Microseconds(),
	})
	covered := int64(0)
	if tel := sh.opts.Telemetry; tel != nil {
		covered = tel.coverage.Distinct()
	}
	j.Checkpoint(journal.Checkpoint{
		ElapsedMicros:      rep.Elapsed.Microseconds(),
		Iterations:         int64(rep.Iterations),
		DistinctSchedules:  int64(rep.DistinctSchedules),
		CoveredTransitions: covered,
	}, true)
}

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

// journalFlushEvery is the journal batching cadence: each worker flushes its
// newly-distinct fingerprints and cursor once per this many completed
// iterations, keeping journal appends amortized well under one allocation
// per iteration and entirely off the scheduling hot path.
const journalFlushEvery = 64

// journalWriter is one worker's batching front end to the shared campaign
// journal. The worker's offset is its key there: unique across shards.
type journalWriter struct {
	sh    *shared
	w     *worker
	fps   []uint64
	since int
}

func newJournalWriter(sh *shared, w *worker) *journalWriter {
	return &journalWriter{sh: sh, w: w, fps: make([]uint64, 0, journalFlushEvery)}
}

// note records one completed iteration (completed is the worker's local
// iteration count so far); newly-distinct fingerprints accumulate in a
// preallocated batch that flushes every flush interval.
func (jw *journalWriter) note(fp uint64, isNew bool, completed int) {
	if isNew {
		jw.fps = append(jw.fps, fp)
	}
	jw.since++
	if jw.since >= journalFlushEvery {
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
	if cs, ok := jw.w.strategy.(CursorStrategy); ok {
		blob = cs.SaveCursor()
	}
	jw.sh.opts.Journal.Advance(jw.w.offset, completed, blob, jw.fps)
	jw.fps = jw.fps[:0]
	jw.sh.checkpoint(jw.sh.elapsed(), jw.sh.tally().Iterations, false)
}

// checkpoint journals a growth-curve point of a campaign that has explored
// iterations schedules in elapsed; the journal rate-limits all but forced
// ones.
func (sh *shared) checkpoint(elapsed time.Duration, iterations int, force bool) {
	covered := int64(0)
	if tel := sh.opts.Telemetry; tel != nil {
		covered = tel.coverage.Distinct()
	}
	sh.opts.Journal.Checkpoint(journal.Checkpoint{
		ElapsedMicros:      elapsed.Microseconds(),
		Iterations:         int64(iterations),
		DistinctSchedules:  int64(sh.fingerprints.size()),
		CoveredTransitions: covered,
	}, force)
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

// finishJournal journals the campaign's cumulative counters — rep is already
// campaign-wide — and a forced final checkpoint, so the next resume (and the
// growth curve) picks up exactly here.
func finishJournal(sh *shared, rep *Report) {
	j := sh.opts.Journal
	if j == nil {
		return
	}
	ct := journal.Counters{ElapsedMicros: rep.Elapsed.Microseconds()}
	rep.Tally.save(&ct)
	j.SaveCounters(ct)
	sh.checkpoint(rep.Elapsed, rep.Iterations, true)
}

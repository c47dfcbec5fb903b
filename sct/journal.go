package sct

import (
	"errors"
	"fmt"
	"time"

	"github.com/psharp-go/psharp/journal"
)

// countCursor is the cursor of a strategy that reseeds per global iteration
// (Random, RandomFair, PCT through seedStream) or runs one
// iteration (Replay): its position is the completed-iteration count the
// engine journals for every worker, so there is nothing else to save, and a
// blob in the journal must be another strategy's. FaultInjector's own fault
// stream is of the same kind; it delegates the cursor to its inner strategy.
type countCursor struct{}

// SaveCursor returns nil: the count says it all.
func (countCursor) SaveCursor() []byte { return nil }

// LoadCursor refuses any cursor: restoreCursor never hands it an empty one.
func (countCursor) LoadCursor([]byte) error {
	return errors.New("the strategy keeps no cursor, so it cannot load cursors (was the campaign run with a different strategy?)")
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
	jw.sh.opts.Journal.Advance(jw.w.offset, completed, jw.w.strategy.SaveCursor(), jw.fps)
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
// iteration count (the engine restarts its stream there) and, when the
// journal holds one, the strategy's cursor (the depth-first search's
// frontier). A cursor the worker's strategy cannot take up is an error: the
// campaign cannot go on from it.
func restoreCursor(j *journal.Campaign, w *worker) error {
	completed, blob, ok := j.Cursor(w.offset)
	if !ok {
		return nil
	}
	w.start = completed
	if len(blob) == 0 {
		return nil
	}
	if err := w.strategy.LoadCursor(blob); err != nil {
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

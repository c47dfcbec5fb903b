package sct

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Progress is one typed progress snapshot, emitted by the engine every
// Options.ProgressEvery iterations of a worker. All campaign-wide fields
// (Iterations, Buggy, Distinct) are global: they count across every worker,
// so the snapshot reports true campaign progress against the global budget.
type Progress struct {
	// Worker is the 0-based id of the emitting worker; Workers is the run's
	// worker count.
	Worker  int `json:"worker"`
	Workers int `json:"workers"`
	// Strategy names the emitting worker's strategy.
	Strategy string `json:"strategy,omitempty"`
	// WorkerIterations is the emitting worker's own iteration count.
	WorkerIterations int `json:"worker_iterations"`
	// Iterations and Budget are the campaign-wide explored count and the
	// global iteration budget.
	Iterations int64 `json:"iterations"`
	Budget     int   `json:"budget"`
	// Buggy and Distinct are the campaign-wide buggy-schedule and
	// distinct-fingerprint counts.
	Buggy    int64 `json:"buggy"`
	Distinct int64 `json:"distinct"`
	// Pruned and DistinctStates are the campaign-wide state-cache counters:
	// iterations cut short at a revisited global state, and distinct hashed
	// states seen. Both 0 (and omitted from JSON) when the cache is off.
	Pruned         int64 `json:"pruned,omitempty"`
	DistinctStates int64 `json:"distinct_states,omitempty"`
	// Elapsed is wall-clock time since the run started, in nanoseconds when
	// marshalled.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ProgressFunc receives progress snapshots. The engine serializes calls
// behind a run-wide mutex, so implementations need no locking of their own
// even under RunParallel; they should return quickly, since emission happens
// between iterations on the exploration path.
type ProgressFunc func(Progress)

// ProgressText returns a ProgressFunc rendering one human-readable line per
// snapshot. Parallel runs tag each line with the emitting worker and its
// strategy; the campaign-wide counters make the lines comparable across
// workers either way.
func ProgressText(w io.Writer) ProgressFunc {
	return func(p Progress) {
		pruned := ""
		if p.Pruned > 0 {
			pruned = fmt.Sprintf(", %d pruned", p.Pruned)
		}
		if p.Workers > 1 {
			fmt.Fprintf(w, "sct: [w%d %s] %d/%d schedules, %d buggy, %d distinct%s, %s\n",
				p.Worker, p.Strategy, p.Iterations, p.Budget, p.Buggy, p.Distinct, pruned,
				p.Elapsed.Round(time.Millisecond))
			return
		}
		fmt.Fprintf(w, "sct: %d/%d schedules, %d buggy, %d distinct%s, %s\n",
			p.Iterations, p.Budget, p.Buggy, p.Distinct, pruned, p.Elapsed.Round(time.Millisecond))
	}
}

// ProgressJSONL returns a ProgressFunc writing one JSON object per line —
// the machine-readable stream behind psharp-test -progress-jsonl.
func ProgressJSONL(w io.Writer) ProgressFunc {
	enc := json.NewEncoder(w)
	return func(p Progress) {
		enc.Encode(p)
	}
}

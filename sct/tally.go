package sct

import (
	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/journal"
)

// Tally is what a campaign counts — the columns of the paper's Table 2 and
// the engine's own cost counters — and the one place the engine names them.
// A worker counts each iteration into its own (Count); Merge adds two up:
// the workers' into the campaign's, a resumed campaign's journaled past into
// its present. The final Report and every live view (Telemetry.Snapshot,
// Progress, a journal checkpoint) read that same sum. Report, CampaignResult
// and TelemetrySnapshot embed it; the JSON keys are the campaign report's.
// Under Options.Journal every field is campaign-cumulative: the journal's
// counters record carries the whole Tally across resumes.
type Tally struct {
	// Iterations is the number of schedules actually explored.
	Iterations int `json:"iterations"`
	// BuggyIterations counts schedules that exposed a bug.
	BuggyIterations int `json:"buggy_iterations"`
	// BoundReached counts iterations truncated by MaxSteps.
	BoundReached int `json:"bound_reached"`
	// PrunedIterations counts iterations the state cache cut short at a
	// revisited global state (Options.StateCache). They consume schedule
	// budget (Iterations + PrunedIterations is the budget consumed) but
	// explore nothing new, so they are kept out of Iterations,
	// DistinctSchedules and SchedulesPerSecond.
	PrunedIterations int `json:"pruned_iterations,omitempty"`
	// TotalSchedulingPoints sums scheduling decisions across iterations.
	TotalSchedulingPoints int64 `json:"total_scheduling_points"`
	// PrunedPoints sums the scheduling decisions of the pruned iterations,
	// which TotalSchedulingPoints leaves out: the campaign's schedules hold
	// TotalSchedulingPoints + PrunedPoints decisions.
	PrunedPoints int64 `json:"pruned_points,omitempty"`
	// ReplayedPoints is how many of those lay inside the prefix the
	// strategy promised to repeat of the worker's previous iteration, where
	// the state cache is not consulted (psharp.IterationResult.ReplayedPoints);
	// Shares().ReplayedShare is their ratio. 0 when the state cache was off.
	ReplayedPoints int64 `json:"replayed_points,omitempty"`
	// RestoredPoints is how many scheduling decisions did not have to be
	// executed: depth-first iterations start from a checkpoint inside the
	// prefix they share with the one before (psharp.PrefixResumer), and the
	// decisions before it are in the schedule — in TotalSchedulingPoints,
	// PrunedPoints and ReplayedPoints — without having been made again.
	// Shares().RestoredShare is their share of those points; 0 under any
	// other strategy, with or without a state cache.
	RestoredPoints int64 `json:"restored_points,omitempty"`
	// ContinuedPoints is how many of the decisions (those of pruned
	// iterations included) kept the machine that had just reached a send or
	// create running, so that the controller switched no coroutine
	// (psharp.IterationResult.ContinuedPoints); Shares().ContinuedShare is
	// their ratio. An exact function of the schedules explored.
	ContinuedPoints int64 `json:"continued_points,omitempty"`
	// Faults totals the failure actions injected across all iterations
	// (zero, and absent from JSON, when nothing was injected).
	Faults psharp.FaultStats `json:"faults,omitzero"`
	// MaxSchedulingPoints is the longest schedule seen (#SP).
	MaxSchedulingPoints int `json:"max_scheduling_points"`
	// MaxMachines is the largest number of machines in one iteration (#T).
	MaxMachines int `json:"max_machines"`
}

// Count adds one finished iteration to the tally.
func (t *Tally) Count(res *psharp.IterationResult) {
	t.ReplayedPoints += int64(res.ReplayedPoints)
	t.RestoredPoints += int64(res.RestoredPoints)
	t.ContinuedPoints += int64(res.ContinuedPoints)
	if res.Pruned {
		// A revisited state truncated the schedule: budget was spent but
		// nothing new was explored, so the iteration stays out of every
		// throughput counter; what it executed is PrunedPoints.
		t.PrunedIterations++
		t.PrunedPoints += int64(res.SchedulingPoints)
		return
	}
	t.Iterations++
	t.TotalSchedulingPoints += int64(res.SchedulingPoints)
	t.MaxSchedulingPoints = max(t.MaxSchedulingPoints, res.SchedulingPoints)
	t.MaxMachines = max(t.MaxMachines, res.Machines)
	if res.BoundReached {
		t.BoundReached++
	}
	if res.Bug != nil {
		t.BuggyIterations++
	}
	t.Faults.Add(res.Faults)
}

// Merge adds o's iterations to t's. Which counters add and which take the
// larger is journal.Counters.Merge's call: campaigns merge by one rule, in
// memory, across resumes and across shards.
func (t *Tally) Merge(o Tally) {
	var sum, other journal.Counters
	t.save(&sum)
	o.save(&other)
	sum.Merge(other)
	t.load(&sum)
}

// Shares are a Tally's ratios: each a count of decisions over the decisions
// of every counted schedule, pruned or not. CampaignResult and
// TelemetrySnapshot embed them beside the Tally they come from.
type Shares struct {
	// ReplayedShare is the share that replayed the previous iteration's
	// prefix: what a stateless search pays for having no snapshot to restart
	// from.
	ReplayedShare float64 `json:"replayed_share,omitempty"`
	// RestoredShare is the share that was restored from a checkpoint instead
	// of executed: what ReplayedShare's re-execution no longer costs.
	RestoredShare float64 `json:"restored_share,omitempty"`
	// ContinuedShare is the share that needed no coroutine switch: the
	// strategy kept the machine running that had just yielded.
	ContinuedShare float64 `json:"continued_share,omitempty"`
}

// Shares computes the tally's ratios; all are 0 before the first decision.
func (t *Tally) Shares() Shares {
	points := float64(t.TotalSchedulingPoints + t.PrunedPoints)
	if points == 0 {
		return Shares{}
	}
	return Shares{
		ReplayedShare:  float64(t.ReplayedPoints) / points,
		RestoredShare:  float64(t.RestoredPoints) / points,
		ContinuedShare: float64(t.ContinuedPoints) / points,
	}
}

// save copies t into the journal's counters record, load the record into t.
func (t *Tally) save(c *journal.Counters) { t.exchange(c, true) }
func (t *Tally) load(c *journal.Counters) { t.exchange(c, false) }

// exchange is the one pairing of counters with journal slots, read both ways.
func (t *Tally) exchange(c *journal.Counters, save bool) {
	pair(save, &t.Iterations, &c.Iterations)
	pair(save, &t.BuggyIterations, &c.BuggyIterations)
	pair(save, &t.BoundReached, &c.BoundReached)
	pair(save, &t.PrunedIterations, &c.PrunedIterations)
	pair(save, &t.TotalSchedulingPoints, &c.TotalSchedulingPoints)
	pair(save, &t.PrunedPoints, &c.PrunedPoints)
	pair(save, &t.ReplayedPoints, &c.ReplayedPoints)
	pair(save, &t.RestoredPoints, &c.RestoredPoints)
	pair(save, &t.ContinuedPoints, &c.ContinuedPoints)
	pair(save, &t.Faults.Crashes, &c.Crashes)
	pair(save, &t.Faults.Restarts, &c.Restarts)
	pair(save, &t.Faults.Drops, &c.Drops)
	pair(save, &t.Faults.Duplicates, &c.Duplicates)
	pair(save, &t.Faults.Reorders, &c.Reorders)
	pair(save, &t.MaxSchedulingPoints, &c.MaxSchedulingPoints)
	pair(save, &t.MaxMachines, &c.MaxMachines)
}

func pair[T int | int64](save bool, counter *T, slot *int64) {
	if save {
		*slot = int64(*counter)
	} else {
		*counter = T(*slot)
	}
}

package sct

import (
	"encoding/json"
	"os"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/obs"
)

// CampaignVersion is the schema version of the Campaign report format.
// Consumers should reject reports with a higher version than they know.
const CampaignVersion = 1

// Campaign is the versioned, machine-readable report of one exploration
// campaign: what was run (config and environment), what came out (the
// merged result and per-strategy breakdown), and how coverage grew over
// wall-clock time (the telemetry snapshot). psharp-test -report-out writes
// one.
type Campaign struct {
	Version int `json:"version"`
	// Env makes successive reports comparable across machines.
	Env    obs.Env        `json:"env"`
	Config CampaignConfig `json:"config"`
	Result CampaignResult `json:"result"`
	// Strategies breaks the result down per strategy label; portfolio runs
	// get one entry per member kind, homogeneous runs exactly one.
	Strategies []StrategyBreakdown `json:"strategies,omitempty"`
	// Telemetry is present when the run attached a Telemetry accumulator.
	Telemetry *TelemetrySnapshot `json:"telemetry,omitempty"`
}

// CampaignConfig records the knobs the campaign ran under.
type CampaignConfig struct {
	Benchmark  string `json:"benchmark,omitempty"`
	Strategy   string `json:"strategy"`
	Workers    int    `json:"workers"`
	Dynamic    bool   `json:"dynamic,omitempty"`
	Iterations int    `json:"iterations"`
	MaxSteps   int    `json:"max_steps"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Monitors   bool   `json:"monitors,omitempty"`
	Liveness   bool   `json:"liveness,omitempty"`
	// FaultBudget is the per-schedule fault-injection budget; 0 means the
	// campaign ran fault-free.
	FaultBudget int `json:"fault_budget,omitempty"`
	// StateCache marks a campaign run with the hashed global-state cache.
	StateCache bool `json:"state_cache,omitempty"`
	// Shard is "i/n" when the run was one shard of a multi-process
	// campaign; empty otherwise.
	Shard string `json:"shard,omitempty"`
	// Resumed marks a run that continued a journaled campaign; its result
	// counters are campaign-cumulative, not this process's alone.
	Resumed bool `json:"resumed,omitempty"`
}

// CampaignResult is the JSON rendering of a merged Report.
type CampaignResult struct {
	Iterations            int     `json:"iterations"`
	DistinctSchedules     int     `json:"distinct_schedules"`
	BuggyIterations       int     `json:"buggy_iterations"`
	PercentBuggy          float64 `json:"percent_buggy"`
	SchedulesPerSecond    float64 `json:"schedules_per_sec"`
	MaxSchedulingPoints   int     `json:"max_scheduling_points"`
	TotalSchedulingPoints int64   `json:"total_scheduling_points"`
	MaxMachines           int     `json:"max_machines"`
	BoundReached          int     `json:"bound_reached"`
	// PrunedIterations and DistinctStates report the state-cache prune
	// census (Report.PrunedIterations / Report.DistinctStates); absent when
	// the campaign ran without Options.StateCache. Pruned iterations are not
	// included in Iterations or SchedulesPerSecond.
	PrunedIterations int `json:"pruned_iterations,omitempty"`
	DistinctStates   int `json:"distinct_states,omitempty"`
	// PrunedPoints is what the pruned iterations executed (it is not part
	// of TotalSchedulingPoints) and ReplayedPoints how much of everything
	// executed re-ran the previous iteration's prefix (Report.PrunedPoints /
	// Report.ReplayedPoints).
	PrunedPoints   int64 `json:"pruned_points,omitempty"`
	ReplayedPoints int64 `json:"replayed_points,omitempty"`
	// RestoredPoints and RestoredShare say how many scheduling decisions of
	// the campaign's schedules were restored from checkpoints instead of
	// executed (Report.RestoredPoints / Report.RestoredShare); absent unless
	// the strategy is depth-first.
	RestoredPoints int64   `json:"restored_points,omitempty"`
	RestoredShare  float64 `json:"restored_share,omitempty"`
	// ContinuedPoints and ContinuedShare say how many of the executed
	// scheduling decisions cost no coroutine switch (Report.ContinuedPoints
	// / Report.ContinuedShare): the campaign's own hand-off profile.
	ContinuedPoints int64   `json:"continued_points,omitempty"`
	ContinuedShare  float64 `json:"continued_share,omitempty"`
	Exhausted       bool    `json:"exhausted,omitempty"`
	// Interrupted marks a partial campaign: the run was stopped early
	// (signal or hard timeout) and its counters cover only the explored
	// prefix. A journaled campaign can be resumed to completion.
	Interrupted       bool     `json:"interrupted,omitempty"`
	ElapsedMS         float64  `json:"elapsed_ms"`
	FirstBug          string   `json:"first_bug,omitempty"`
	FirstBugKind      string   `json:"first_bug_kind,omitempty"`
	FirstBugIteration int      `json:"first_bug_iteration,omitempty"`
	Races             []string `json:"races,omitempty"`
	// Faults breaks down the faults injected across the campaign; absent
	// when fault injection was off or never fired.
	Faults *FaultBreakdown `json:"faults,omitempty"`
}

// FaultBreakdown is the JSON rendering of psharp.FaultStats, shared by
// campaign results and telemetry snapshots.
type FaultBreakdown struct {
	Crashes    int `json:"crashes,omitempty"`
	Restarts   int `json:"restarts,omitempty"`
	Drops      int `json:"drops,omitempty"`
	Duplicates int `json:"duplicates,omitempty"`
	Reorders   int `json:"reorders,omitempty"`
}

func newFaultBreakdown(s psharp.FaultStats) *FaultBreakdown {
	return &FaultBreakdown{
		Crashes:    s.Crashes,
		Restarts:   s.Restarts,
		Drops:      s.Drops,
		Duplicates: s.Duplicates,
		Reorders:   s.Reorders,
	}
}

// StrategyBreakdown aggregates the workers that ran one strategy label.
type StrategyBreakdown struct {
	Strategy            string `json:"strategy"`
	Workers             int    `json:"workers"`
	Iterations          int    `json:"iterations"`
	BuggyIterations     int    `json:"buggy_iterations"`
	BoundReached        int    `json:"bound_reached"`
	MaxSchedulingPoints int    `json:"max_scheduling_points"`
	FoundFirstBug       bool   `json:"found_first_bug,omitempty"`
}

// NewCampaign assembles a campaign report from a merged Report, the
// per-worker sub-reports (nil omits the per-strategy breakdown), and the
// run's Telemetry accumulator (nil when telemetry was off). The environment
// is captured at call time.
func NewCampaign(cfg CampaignConfig, rep *Report, workers []WorkerReport, tel *Telemetry) *Campaign {
	c := &Campaign{
		Version: CampaignVersion,
		Env:     obs.CaptureEnv(),
		Config:  cfg,
		Result: CampaignResult{
			Iterations:            rep.Iterations,
			DistinctSchedules:     rep.DistinctSchedules,
			BuggyIterations:       rep.BuggyIterations,
			PercentBuggy:          rep.PercentBuggy(),
			SchedulesPerSecond:    rep.SchedulesPerSecond(),
			MaxSchedulingPoints:   rep.MaxSchedulingPoints,
			TotalSchedulingPoints: rep.TotalSchedulingPoints,
			MaxMachines:           rep.MaxMachines,
			BoundReached:          rep.BoundReached,
			PrunedIterations:      rep.PrunedIterations,
			DistinctStates:        rep.DistinctStates,
			PrunedPoints:          rep.PrunedPoints,
			ReplayedPoints:        rep.ReplayedPoints,
			RestoredPoints:        rep.RestoredPoints,
			RestoredShare:         rep.RestoredShare(),
			ContinuedPoints:       rep.ContinuedPoints,
			ContinuedShare:        rep.ContinuedShare(),
			Exhausted:             rep.Exhausted,
			Interrupted:           rep.Interrupted,
			ElapsedMS:             float64(rep.Elapsed) / float64(time.Millisecond),
			Races:                 rep.Races,
		},
	}
	if rep.FirstBug != nil {
		c.Result.FirstBug = rep.FirstBug.Error()
		c.Result.FirstBugKind = rep.FirstBug.Kind.String()
		c.Result.FirstBugIteration = rep.FirstBugIteration
	}
	if rep.Faults.Total() > 0 || rep.Faults.Restarts > 0 {
		c.Result.Faults = newFaultBreakdown(rep.Faults)
	}
	c.Strategies = strategyBreakdowns(rep, workers)
	if tel != nil {
		c.Telemetry = tel.Snapshot()
	}
	return c
}

// strategyBreakdowns folds per-worker sub-reports into per-label
// aggregates, preserving first-seen label order (worker order).
func strategyBreakdowns(merged *Report, workers []WorkerReport) []StrategyBreakdown {
	if len(workers) == 0 {
		return nil
	}
	index := make(map[string]int, len(workers))
	var out []StrategyBreakdown
	for i := range workers {
		w := &workers[i]
		j, ok := index[w.Strategy]
		if !ok {
			j = len(out)
			index[w.Strategy] = j
			out = append(out, StrategyBreakdown{Strategy: w.Strategy})
		}
		b := &out[j]
		b.Workers++
		b.Iterations += w.Report.Iterations
		b.BuggyIterations += w.Report.BuggyIterations
		b.BoundReached += w.Report.BoundReached
		if w.Report.MaxSchedulingPoints > b.MaxSchedulingPoints {
			b.MaxSchedulingPoints = w.Report.MaxSchedulingPoints
		}
		if merged.FirstBug != nil && w.Report.FirstBug != nil &&
			w.Report.FirstBugIteration == merged.FirstBugIteration {
			b.FoundFirstBug = true
		}
	}
	return out
}

// WriteFile marshals the campaign as indented JSON into path.
func (c *Campaign) WriteFile(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

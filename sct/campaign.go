package sct

import (
	"encoding/json"
	"os"
	"time"

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
	Iterations int    `json:"iterations"`
	MaxSteps   int    `json:"max_steps"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Monitors   bool   `json:"monitors,omitempty"`
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

// CampaignResult is the JSON rendering of a merged Report: its Tally, under
// the Tally's own keys, and what is derived from it or is not a count.
type CampaignResult struct {
	Tally
	DistinctSchedules  int     `json:"distinct_schedules"`
	PercentBuggy       float64 `json:"percent_buggy"`
	SchedulesPerSecond float64 `json:"schedules_per_sec"`
	// DistinctStates is Report.DistinctStates; absent without a state cache.
	DistinctStates int `json:"distinct_states,omitempty"`
	// Shares are the Tally's: how much of the campaign's schedules replayed
	// the attempt before (absent without a state cache), was restored from
	// checkpoints instead of executed (absent unless the strategy is
	// depth-first), and its hand-off profile.
	Shares
	Exhausted bool `json:"exhausted,omitempty"`
	// Interrupted marks a partial campaign: the run was stopped early
	// (signal or hard timeout) and its counters cover only the explored
	// prefix. A journaled campaign can be resumed to completion.
	Interrupted       bool     `json:"interrupted,omitempty"`
	ElapsedMS         float64  `json:"elapsed_ms"`
	FirstBug          string   `json:"first_bug,omitempty"`
	FirstBugKind      string   `json:"first_bug_kind,omitempty"`
	FirstBugIteration int      `json:"first_bug_iteration,omitempty"`
	Races             []string `json:"races,omitempty"`
}

// StrategyBreakdown aggregates the workers that ran one strategy label: the
// Merge of their Tallies, under the Tally's own keys.
type StrategyBreakdown struct {
	Strategy string `json:"strategy"`
	Workers  int    `json:"workers"`
	Tally
	FoundFirstBug bool `json:"found_first_bug,omitempty"`
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
			Tally:              rep.Tally,
			DistinctSchedules:  rep.DistinctSchedules,
			PercentBuggy:       rep.PercentBuggy(),
			SchedulesPerSecond: rep.SchedulesPerSecond(),
			DistinctStates:     rep.DistinctStates,
			Shares:             rep.Shares(),
			Exhausted:          rep.Exhausted,
			Interrupted:        rep.Interrupted,
			ElapsedMS:          float64(rep.Elapsed) / float64(time.Millisecond),
			Races:              rep.Races,
		},
	}
	if rep.FirstBug != nil {
		c.Result.FirstBug = rep.FirstBug.Error()
		c.Result.FirstBugKind = rep.FirstBug.Kind.String()
		c.Result.FirstBugIteration = rep.FirstBugIteration
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
		b.Merge(w.Report.Tally)
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

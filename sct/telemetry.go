package sct

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/journal"
	"github.com/psharp-go/psharp/obs"
)

// Telemetry accumulates exploration-campaign metrics across every iteration
// and worker of a run: the distribution of schedule depths, state-transition
// coverage (which machine-state × event pairs the explored schedules
// actually exercised), a census of bug kinds, and a growth curve sampling
// how iterations, distinct schedule fingerprints, and covered transitions
// grow over wall-clock time.
//
// Attach one via Options.Telemetry. All recording is allocation-free in
// steady state (atomics, an interned coverage set, and a time-bucketed
// curve whose fast path is one atomic load), so the engine's allocation
// caps hold with telemetry on; TestTelemetryAllocationOverhead gates the
// overhead at 3 allocations per iteration. Snapshot is safe to call
// concurrently with a live run, which is what the -http debug endpoint
// serves.
type Telemetry struct {
	coverage obs.StateEventCoverage
	depth    obs.Histogram
	curve    *obs.Curve

	mu     sync.Mutex
	census map[string]int64 // bug kind -> buggy iteration count
	faults psharp.FaultStats

	// pruned, states, prunedPoints and replayedPoints mirror the run's
	// state-cache counters (campaign-wide pruned iterations, distinct hashed
	// states, decisions executed by pruned iterations, prefix-replay
	// decisions) at the last curve sample, so a live Snapshot reports them
	// without reaching into engine internals. All stay zero when the run has
	// no state cache. continuedPoints and restoredPoints mirror
	// Report.ContinuedPoints and Report.RestoredPoints the same way.
	pruned          atomic.Int64
	states          atomic.Int64
	prunedPoints    atomic.Int64
	replayedPoints  atomic.Int64
	restoredPoints  atomic.Int64
	continuedPoints atomic.Int64

	start time.Time
	// base offsets every sample's elapsed time by the prior journaled runs'
	// cumulative wall-clock, so a resumed campaign's growth curve continues
	// where the interrupted run's checkpoints left off instead of
	// restarting at zero.
	base time.Duration
}

// NewTelemetry returns a telemetry accumulator whose growth curve samples
// at most once per interval (non-positive selects 5ms, fine-grained enough
// that even sub-second corpus runs record several buckets).
func NewTelemetry(interval time.Duration) *Telemetry {
	return &Telemetry{curve: obs.NewCurve(interval, 0)}
}

// Coverage exposes the campaign's state-transition coverage set, e.g. to
// share it with a production runtime or inspect it mid-run.
func (t *Telemetry) Coverage() *obs.StateEventCoverage { return &t.coverage }

// begin stamps the run's start time; called by the engine.
func (t *Telemetry) begin(start time.Time) { t.start = start }

// restore seeds the growth curve from a resumed campaign's journaled
// checkpoints and offsets subsequent samples past them; called by the
// engine when a run carries a journal. The iteration and
// distinct-schedule series genuinely span the whole campaign (counters
// and fingerprints are recovered); the covered-transitions series
// re-accumulates per process, since the coverage set itself is not
// journaled, so it can dip at a resume boundary.
func (t *Telemetry) restore(base time.Duration, checkpoints []journal.Checkpoint) {
	t.base = base
	for _, cp := range checkpoints {
		t.curve.Restore(obs.CurvePoint{
			Elapsed: time.Duration(cp.ElapsedMicros) * time.Microsecond,
			Values:  []int64{cp.Iterations, cp.DistinctSchedules, cp.CoveredTransitions},
		})
	}
}

// record folds one finished iteration in; called by workers off the
// scheduling hot path (between iterations).
func (t *Telemetry) record(res *psharp.IterationResult) {
	t.depth.Observe(int64(res.SchedulingPoints))
	if res.Bug == nil && res.Faults.Total() == 0 && res.Faults.Restarts == 0 {
		return
	}
	t.mu.Lock()
	if res.Bug != nil {
		if t.census == nil {
			t.census = make(map[string]int64)
		}
		t.census[res.Bug.Kind.String()]++
	}
	t.faults.Add(res.Faults)
	t.mu.Unlock()
}

// maybeSample takes a growth-curve point if the current time bucket is due.
// The not-due path is one atomic load, so workers poll it every iteration.
func (t *Telemetry) maybeSample(sh *shared) {
	elapsed := t.base + time.Since(t.start)
	if !t.curve.Due(elapsed) {
		return
	}
	t.sample(elapsed, false, sh)
}

// finish forces a final curve point so even runs shorter than one bucket
// interval report their end state.
func (t *Telemetry) finish(sh *shared) {
	t.sample(t.base+time.Since(t.start), true, sh)
}

func (t *Telemetry) sample(elapsed time.Duration, force bool, sh *shared) {
	states := int64(0)
	if sh.cache != nil {
		states = int64(sh.cache.size())
	}
	t.pruned.Store(sh.pruned.Load())
	t.prunedPoints.Store(sh.prunedPoints.Load())
	t.replayedPoints.Store(sh.replayedPoints.Load())
	t.restoredPoints.Store(sh.restoredPoints.Load())
	t.continuedPoints.Store(sh.continuedPoints.Load())
	t.states.Store(states)
	t.curve.Sample(elapsed, force,
		sh.iterations.Load(), sh.distinct.Load(), t.coverage.Distinct(), states)
}

// GrowthPoint is one sample of the campaign growth curve.
type GrowthPoint struct {
	ElapsedMS          float64 `json:"elapsed_ms"`
	Iterations         int64   `json:"iterations"`
	DistinctSchedules  int64   `json:"distinct_schedules"`
	CoveredTransitions int64   `json:"covered_transitions"`
	// DistinctStates is the state cache's distinct-global-state count at the
	// sample; 0 when the run has no cache (and for curve points restored from
	// journal checkpoints, which predate or don't record the series).
	DistinctStates int64 `json:"distinct_states,omitempty"`
}

// TelemetrySnapshot is the JSON-friendly view of a Telemetry accumulator.
type TelemetrySnapshot struct {
	// SchedulingPoints is the distribution of schedule depths (decisions per
	// iteration) across the campaign.
	SchedulingPoints obs.HistogramSnapshot `json:"scheduling_points"`
	// CoveredTransitions counts distinct (machine, state, event) triples
	// exercised; Coverage lists them with hit counts.
	CoveredTransitions int64                 `json:"covered_transitions"`
	Coverage           []obs.TransitionCount `json:"coverage,omitempty"`
	// BugCensus counts buggy iterations by bug kind.
	BugCensus map[string]int64 `json:"bug_census,omitempty"`
	// Faults breaks down injected faults across the campaign; present only
	// when fault injection was on and at least one fault fired.
	Faults *FaultBreakdown `json:"faults,omitempty"`
	// PrunedIterations and DistinctStates report the state-cache prune census
	// as of the last growth-curve sample; both 0 when the cache was off.
	PrunedIterations int64 `json:"pruned_iterations,omitempty"`
	DistinctStates   int64 `json:"distinct_states,omitempty"`
	// PrunedPoints and ReplayedPoints are the scheduling decisions of the
	// pruned iterations and the prefix-replay decisions of all iterations
	// (Report.PrunedPoints / Report.ReplayedPoints), as of the same sample.
	PrunedPoints   int64 `json:"pruned_points,omitempty"`
	ReplayedPoints int64 `json:"replayed_points,omitempty"`
	// RestoredPoints is how many scheduling decisions were restored from
	// checkpoints instead of executed (Report.RestoredPoints), as of the same
	// sample.
	RestoredPoints int64 `json:"restored_points,omitempty"`
	// ContinuedPoints is how many executed scheduling decisions cost no
	// coroutine switch (Report.ContinuedPoints), as of the same sample;
	// over SchedulingPoints' count × mean (plus PrunedPoints) it is the
	// live ContinuedShare.
	ContinuedPoints int64 `json:"continued_points,omitempty"`
	// GrowthCurve samples campaign progress over wall-clock time.
	GrowthCurve []GrowthPoint `json:"growth_curve,omitempty"`
}

// Snapshot renders the accumulator's current state. It allocates and sorts,
// and is safe to call concurrently with a live run (the debug endpoint
// does), though a mid-run snapshot may be internally torn across metrics.
func (t *Telemetry) Snapshot() *TelemetrySnapshot {
	s := &TelemetrySnapshot{
		SchedulingPoints:   t.depth.Snapshot(),
		CoveredTransitions: t.coverage.Distinct(),
		Coverage:           t.coverage.Snapshot(),
	}
	t.mu.Lock()
	if len(t.census) > 0 {
		s.BugCensus = make(map[string]int64, len(t.census))
		for k, v := range t.census {
			s.BugCensus[k] = v
		}
	}
	if t.faults.Total() > 0 || t.faults.Restarts > 0 {
		s.Faults = newFaultBreakdown(t.faults)
	}
	t.mu.Unlock()
	s.PrunedIterations = t.pruned.Load()
	s.DistinctStates = t.states.Load()
	s.PrunedPoints = t.prunedPoints.Load()
	s.ReplayedPoints = t.replayedPoints.Load()
	s.RestoredPoints = t.restoredPoints.Load()
	s.ContinuedPoints = t.continuedPoints.Load()
	for _, p := range t.curve.Points() {
		gp := GrowthPoint{ElapsedMS: float64(p.Elapsed) / float64(time.Millisecond)}
		// Journal-restored checkpoints carry 3 values; live samples carry 4.
		if len(p.Values) >= 3 {
			gp.Iterations, gp.DistinctSchedules, gp.CoveredTransitions = p.Values[0], p.Values[1], p.Values[2]
		}
		if len(p.Values) >= 4 {
			gp.DistinctStates = p.Values[3]
		}
		s.GrowthCurve = append(s.GrowthCurve, gp)
	}
	return s
}

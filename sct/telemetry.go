package sct

import (
	"maps"
	"sync"
	"time"

	"github.com/psharp-go/psharp"
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
// serves. The counters in it are not the accumulator's: it reads the Tally
// of the run it is attached to, the latest one when it is shared across runs.
type Telemetry struct {
	coverage obs.StateEventCoverage
	depth    obs.Histogram
	curve    *obs.Curve

	mu     sync.Mutex
	census map[string]int64 // bug kind -> buggy iteration count
	// run is the engine run the accumulator is attached to, live or
	// finished; nil before the first.
	run *shared
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

// begin attaches the accumulator to a starting run and, when the run resumes
// a journaled campaign, seeds the growth curve from its checkpoints; samples
// are offset past them by the prior runs' wall-clock time (shared.elapsed), so the
// curve continues where the interrupted run left off instead of restarting
// at zero. The iteration and distinct-schedule series genuinely span the
// whole campaign (counters and fingerprints are recovered); the
// covered-transitions series re-accumulates per process, since the coverage
// set itself is not journaled, so it can dip at a resume boundary.
func (t *Telemetry) begin(sh *shared) {
	t.mu.Lock()
	t.run = sh
	t.mu.Unlock()
	if sh.opts.Journal == nil {
		return
	}
	for _, cp := range sh.opts.Journal.Checkpoints() {
		t.curve.Restore(obs.CurvePoint{
			Elapsed: time.Duration(cp.ElapsedMicros) * time.Microsecond,
			Values:  []int64{cp.Iterations, cp.DistinctSchedules, cp.CoveredTransitions},
		})
	}
}

// record folds one explored iteration in; called by workers off the
// scheduling hot path (between iterations).
func (t *Telemetry) record(res *psharp.IterationResult) {
	t.depth.Observe(int64(res.SchedulingPoints))
	if res.Bug == nil {
		return
	}
	t.mu.Lock()
	if t.census == nil {
		t.census = make(map[string]int64)
	}
	t.census[res.Bug.Kind.String()]++
	t.mu.Unlock()
}

// maybeSample takes a growth-curve point if the current time bucket is due.
// The not-due path is one atomic load, so workers poll it every iteration.
func (t *Telemetry) maybeSample() {
	if elapsed := t.run.elapsed(); t.curve.Due(elapsed) {
		t.sample(elapsed, false)
	}
}

// finish forces a final curve point so even runs shorter than one bucket
// interval report their end state.
func (t *Telemetry) finish() { t.sample(t.run.elapsed(), true) }

func (t *Telemetry) sample(elapsed time.Duration, force bool) {
	sh := t.run
	t.curve.Sample(elapsed, force, int64(sh.tally().Iterations), int64(sh.fingerprints.size()),
		t.coverage.Distinct(), int64(sh.cache.size()))
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
	// Tally is the campaign's count at the moment of the snapshot — the
	// engine's own, read live, so mid-run it is what Progress reports and
	// after the run what the Report carries.
	Tally
	// DistinctStates is the state cache's size at the same moment; 0 when
	// the cache was off.
	DistinctStates int `json:"distinct_states,omitempty"`
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
	s.BugCensus = maps.Clone(t.census)
	run := t.run
	t.mu.Unlock()
	if run != nil {
		s.Tally, s.DistinctStates = run.tally(), run.cache.size()
	}
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

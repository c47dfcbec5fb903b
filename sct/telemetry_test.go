package sct_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// TestTelemetryAccumulatesCampaignMetrics checks the full accumulator on a
// sequential run: depth histogram, transition coverage, bug census, and a
// growth curve with a forced final point.
func TestTelemetryAccumulatesCampaignMetrics(t *testing.T) {
	tel := sct.NewTelemetry(time.Millisecond)
	rep := sct.Run(orderingBugSetup(), sct.Options{
		Strategy:   sct.NewRandom(42),
		Iterations: 300,
		MaxSteps:   100,
		Telemetry:  tel,
	})
	snap := tel.Snapshot()
	if snap.SchedulingPoints.Count != int64(rep.Iterations) {
		t.Fatalf("depth observations = %d, want %d", snap.SchedulingPoints.Count, rep.Iterations)
	}
	if snap.SchedulingPoints.Max != int64(rep.MaxSchedulingPoints) {
		t.Fatalf("depth max = %d, want %d", snap.SchedulingPoints.Max, rep.MaxSchedulingPoints)
	}
	if snap.CoveredTransitions < 2 {
		t.Fatalf("covered transitions = %d, want >= 2 (%+v)", snap.CoveredTransitions, snap.Coverage)
	}
	if int64(len(snap.Coverage)) != snap.CoveredTransitions {
		t.Fatalf("coverage list length %d != distinct %d", len(snap.Coverage), snap.CoveredTransitions)
	}
	if rep.BuggyIterations > 0 {
		var census int64
		for _, n := range snap.BugCensus {
			census += n
		}
		if census != int64(rep.BuggyIterations) {
			t.Fatalf("bug census sums to %d, want %d (%v)", census, rep.BuggyIterations, snap.BugCensus)
		}
		if snap.BugCensus["assertion failure"] == 0 {
			t.Fatalf("census missing assertion failures: %v", snap.BugCensus)
		}
	}
	if len(snap.GrowthCurve) == 0 {
		t.Fatal("no growth-curve points")
	}
	last := snap.GrowthCurve[len(snap.GrowthCurve)-1]
	if last.Iterations != int64(rep.Iterations) {
		t.Fatalf("final curve point iterations = %d, want %d", last.Iterations, rep.Iterations)
	}
	if last.DistinctSchedules != int64(rep.DistinctSchedules) {
		t.Fatalf("final curve point distinct = %d, want %d", last.DistinctSchedules, rep.DistinctSchedules)
	}
	if last.CoveredTransitions != snap.CoveredTransitions {
		t.Fatalf("final curve point coverage = %d, want %d", last.CoveredTransitions, snap.CoveredTransitions)
	}
}

// TestTelemetryParallelMergesAcrossWorkers checks that one accumulator
// shared by parallel workers records every iteration exactly once.
func TestTelemetryParallelMergesAcrossWorkers(t *testing.T) {
	tel := sct.NewTelemetry(time.Millisecond)
	par := sct.RunParallel(fanInSetup(3), sct.ParallelOptions{
		Options: sct.Options{
			Strategy:   sct.NewRandom(7),
			Iterations: 200,
			MaxSteps:   1000,
			Telemetry:  tel,
		},
		Workers: 4,
	})
	snap := tel.Snapshot()
	if snap.SchedulingPoints.Count != int64(par.Iterations) {
		t.Fatalf("depth observations = %d, want %d", snap.SchedulingPoints.Count, par.Iterations)
	}
	last := snap.GrowthCurve[len(snap.GrowthCurve)-1]
	if last.Iterations != int64(par.Iterations) || last.DistinctSchedules != int64(par.DistinctSchedules) {
		t.Fatalf("final curve point %+v disagrees with report (%d iters, %d distinct)",
			last, par.Iterations, par.DistinctSchedules)
	}
}

// TestCampaignReportRoundTrip builds a campaign report from a portfolio run,
// writes it, and checks the decoded JSON carries the versioned schema, the
// per-strategy breakdown, and a multi-bucket growth curve.
func TestCampaignReportRoundTrip(t *testing.T) {
	tel := sct.NewTelemetry(time.Millisecond)
	pf, err := sct.ParsePortfolio("random,dfs", 1, 100, -1)
	if err != nil {
		t.Fatal(err)
	}
	par := sct.RunParallel(fanInSetup(3), sct.ParallelOptions{
		Options: sct.Options{
			Iterations: 200,
			MaxSteps:   1000,
			Telemetry:  tel,
		},
		Workers:   2,
		Portfolio: pf,
	})
	cfg := sct.CampaignConfig{
		Benchmark: "FanIn", Strategy: "portfolio[random,dfs]",
		Workers: 2, Iterations: 200, MaxSteps: 1000,
	}
	c := sct.NewCampaign(cfg, &par.Report, par.Workers, tel)
	if c.Version != sct.CampaignVersion {
		t.Fatalf("version = %d, want %d", c.Version, sct.CampaignVersion)
	}
	if len(c.Strategies) != 2 {
		t.Fatalf("strategy breakdowns = %d, want 2 (%+v)", len(c.Strategies), c.Strategies)
	}
	var total int
	for _, b := range c.Strategies {
		total += b.Iterations
	}
	if total != par.Iterations {
		t.Fatalf("breakdown iterations sum to %d, want %d", total, par.Iterations)
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded sct.Campaign
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("campaign does not decode: %v", err)
	}
	if decoded.Env.GoVersion == "" || decoded.Env.NumCPU == 0 {
		t.Fatalf("missing environment metadata: %+v", decoded.Env)
	}
	if decoded.Result.Iterations != par.Iterations {
		t.Fatalf("result iterations = %d, want %d", decoded.Result.Iterations, par.Iterations)
	}
	if decoded.Telemetry == nil || len(decoded.Telemetry.GrowthCurve) == 0 {
		t.Fatal("campaign missing telemetry growth curve")
	}
}

// TestContinuedPointsInReportCampaignAndSnapshot: the count of scheduling
// decisions that cost no coroutine switch is an exact function of the
// schedules explored — one worker and four static shards of the same seed
// and budget report the same total — and the campaign report and the live
// snapshot carry it beside its share of everything executed.
func TestContinuedPointsInReportCampaignAndSnapshot(t *testing.T) {
	run := func(workers int, tel *sct.Telemetry) sct.ParallelReport {
		return sct.RunParallel(fanInSetup(3), sct.ParallelOptions{
			Options: sct.Options{Strategy: sct.NewRandom(11), Iterations: 200, MaxSteps: 1000, Telemetry: tel},
			Workers: workers,
		})
	}
	tel := sct.NewTelemetry(time.Second)
	seq, par := run(1, tel), run(4, nil)
	if seq.ContinuedPoints <= 0 || seq.ContinuedPoints >= seq.TotalSchedulingPoints {
		t.Fatalf("%d continued points of %d executed", seq.ContinuedPoints, seq.TotalSchedulingPoints)
	}
	if par.ContinuedPoints != seq.ContinuedPoints || par.TotalSchedulingPoints != seq.TotalSchedulingPoints {
		t.Fatalf("four shards: %d continued of %d points; one worker: %d of %d",
			par.ContinuedPoints, par.TotalSchedulingPoints, seq.ContinuedPoints, seq.TotalSchedulingPoints)
	}
	if want := float64(seq.ContinuedPoints) / float64(seq.TotalSchedulingPoints); seq.Shares().ContinuedShare != want {
		t.Fatalf("ContinuedShare %v, want %v", seq.Shares().ContinuedShare, want)
	}
	c := sct.NewCampaign(sct.CampaignConfig{Strategy: "random"}, &seq.Report, nil, tel)
	if c.Result.ContinuedPoints != seq.ContinuedPoints || c.Result.ContinuedShare != seq.Shares().ContinuedShare ||
		c.Telemetry.ContinuedPoints != seq.ContinuedPoints {
		t.Fatalf("campaign result %d (%.3f) and snapshot %d disagree with the run's %d (%.3f)",
			c.Result.ContinuedPoints, c.Result.ContinuedShare, c.Telemetry.ContinuedPoints,
			seq.ContinuedPoints, seq.Shares().ContinuedShare)
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Result struct {
			ContinuedPoints int64 `json:"continued_points"`
		} `json:"result"`
		Telemetry struct {
			ContinuedPoints int64 `json:"continued_points"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Result.ContinuedPoints != seq.ContinuedPoints || decoded.Telemetry.ContinuedPoints != seq.ContinuedPoints {
		t.Fatalf("campaign JSON carries %+v, want %d in both places", decoded, seq.ContinuedPoints)
	}
}

// TestSnapshotMidRunIsLive: a snapshot taken while the run is going — here
// from a Progress callback, which a worker makes between two iterations —
// carries the engine's own counts of that moment, the ones the Progress
// reports, and not those of the last growth-curve sample (there is none: the
// curve's interval is an hour).
func TestSnapshotMidRunIsLive(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", false)
	tel := sct.NewTelemetry(time.Hour)
	calls := 0
	rep := sct.Run(b.Setup, sct.Options{
		Strategy: sct.NewDFS(), Iterations: 300, MaxSteps: b.MaxSteps, StateCache: true,
		Telemetry: tel, ProgressEvery: 1,
		Progress: func(p sct.Progress) {
			calls++
			snap := tel.Snapshot()
			if int64(snap.Iterations) != p.Iterations || int64(snap.PrunedIterations) != p.Pruned ||
				int64(snap.DistinctStates) != p.DistinctStates || int64(snap.BuggyIterations) != p.Buggy {
				t.Errorf("snapshot %+v (%d states) beside progress %+v", snap.Tally, snap.DistinctStates, p)
			}
			// One worker: what it has run so far is what the campaign counted.
			if snap.Iterations+snap.PrunedIterations != p.WorkerIterations {
				t.Errorf("snapshot counts %d+%d schedules after %d", snap.Iterations, snap.PrunedIterations, p.WorkerIterations)
			}
			if snap.PrunedIterations > 0 && (snap.PrunedPoints == 0 || snap.ReplayedPoints == 0 || snap.ContinuedPoints == 0) {
				t.Errorf("snapshot %+v lags the pruned iterations it counts", snap.Tally)
			}
			// The shares /debug/vars serves are the ratios of these counts.
			points := float64(snap.TotalSchedulingPoints + snap.PrunedPoints)
			want := map[string]float64{
				"replayed_share":  float64(snap.ReplayedPoints) / points,
				"restored_share":  float64(snap.RestoredPoints) / points,
				"continued_share": float64(snap.ContinuedPoints) / points,
			}
			data, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			for key, w := range want {
				if g, _ := got[key].(float64); g != w {
					t.Errorf("snapshot JSON %s = %v, want %v of %+v", key, got[key], w, snap.Tally)
				}
			}
		},
	})
	if calls != rep.Iterations || rep.PrunedIterations == 0 {
		t.Fatalf("%d progress calls for %d explored and %d pruned schedules", calls, rep.Iterations, rep.PrunedIterations)
	}
	snap := tel.Snapshot()
	if snap.Tally != rep.Tally || snap.DistinctStates != rep.DistinctStates {
		t.Fatalf("final snapshot %+v (%d states), report %+v (%d states)", snap.Tally, snap.DistinctStates, rep.Tally, rep.DistinctStates)
	}
	if snap.Shares != rep.Shares() || snap.ReplayedShare == 0 || snap.RestoredShare == 0 || snap.ContinuedShare == 0 {
		t.Fatalf("final snapshot shares %+v, report %+v", snap.Shares, rep.Shares())
	}
}

// TestTelemetryAllocationOverhead: the same TwoPhaseCommit budget through
// sct.Run with and without a Telemetry accumulator. The per-run fixed cost
// (harness construction, first iterations) is the same on both sides, so the
// difference in allocations per iteration is what the observability layer
// spends; it may be at most 3. Not parallel: MemStats.Mallocs is process-wide.
func TestTelemetryAllocationOverhead(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", true)
	const iters = 400
	measure := func(tel *sct.Telemetry) float64 {
		run := func() {
			sct.Run(b.Setup, sct.Options{
				Strategy: sct.NewRandom(1), Iterations: iters, MaxSteps: b.MaxSteps, Telemetry: tel,
			})
		}
		run() // warm global pools before measuring
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / iters
	}
	plain, with := measure(nil), measure(sct.NewTelemetry(0))
	if with-plain > 3 {
		t.Errorf("telemetry adds %.2f allocs/iteration (plain %.1f, with telemetry %.1f), budget 3",
			with-plain, plain, with)
	}
	t.Logf("allocs/iteration: plain %.2f, with telemetry %.2f (%+.2f)", plain, with, with-plain)
}

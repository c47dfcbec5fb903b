package sct_test

// The campaign-report oracle. testdata/campaign_oracle.json holds the
// campaign JSON of three deterministic runs as the build before sct.Tally
// wrote it (one hand-written field list per layer), with the environment and
// every wall-clock field scrubbed. The report is compared as decoded maps:
// config and result must be equal, strategies and telemetry may have grown
// keys but not changed or lost one. Re-record only for a deliberate change of
// the report format:
//
//	PSHARP_WRITE_GOLDENS=1 go test -run TestWriteCampaignOracle ./sct

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

const campaignOraclePath = "testdata/campaign_oracle.json"

// campaignOracleRuns renders each oracle campaign to its scrubbed, decoded
// JSON. Every run explores its whole budget on static shards, so every
// counter in it is a function of the options alone.
func campaignOracleRuns(t *testing.T) map[string]map[string]any {
	t.Helper()
	tpc := protocols.MustByName("TwoPhaseCommit", true)
	portfolio, err := sct.ParsePortfolio("random,pct", 3, tpc.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	ft := protocols.MustByName("TwoPhaseCommitFT", true)
	correct := protocols.MustByName("TwoPhaseCommit", false)
	runs := []struct {
		name  string
		bench protocols.Benchmark
		cfg   sct.CampaignConfig
		opts  sct.ParallelOptions
	}{
		{"portfolio", tpc, sct.CampaignConfig{Strategy: "portfolio[random,pct]", Seed: 3, Monitors: true},
			sct.ParallelOptions{Options: sct.Options{Iterations: 300}, Workers: 2, Portfolio: portfolio}},
		{"faults", ft, sct.CampaignConfig{Strategy: "random", Seed: 5, Monitors: true, FaultBudget: 2},
			sct.ParallelOptions{Options: sct.Options{Strategy: sct.NewRandom(5), Iterations: 300,
				Faults: sct.FaultOptions{Budget: 2, Seed: 5, Immune: ft.FaultImmune, Restart: true}}, Workers: 2}},
		{"dfs+cache", correct, sct.CampaignConfig{Strategy: "dfs", StateCache: true},
			sct.ParallelOptions{Options: sct.Options{Strategy: sct.NewDFS(), Iterations: 300, StateCache: true}, Workers: 1}},
	}
	out := make(map[string]map[string]any, len(runs))
	for _, r := range runs {
		tel := sct.NewTelemetry(time.Hour)
		r.opts.MaxSteps = r.bench.MaxSteps
		r.opts.Telemetry = tel
		rep := sct.RunParallel(r.bench.SetupMonitored(), r.opts)
		if rep.Interrupted || rep.Iterations+rep.PrunedIterations != r.opts.Iterations {
			t.Fatalf("%s: ran %d+%d of %d schedules", r.name, rep.Iterations, rep.PrunedIterations, r.opts.Iterations)
		}
		r.cfg.Benchmark, r.cfg.Workers = r.bench.ID(), r.opts.Workers
		r.cfg.Iterations, r.cfg.MaxSteps = r.opts.Iterations, r.bench.MaxSteps
		data, err := json.Marshal(sct.NewCampaign(r.cfg, &rep.Report, rep.Workers, tel))
		if err != nil {
			t.Fatal(err)
		}
		var c map[string]any
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatal(err)
		}
		delete(c, "env")
		result := c["result"].(map[string]any)
		result["elapsed_ms"], result["schedules_per_sec"] = 0.0, 0.0
		// Only the forced final point of the growth curve is independent of
		// how fast the run went.
		telemetry := c["telemetry"].(map[string]any)
		curve := telemetry["growth_curve"].([]any)
		last := curve[len(curve)-1].(map[string]any)
		last["elapsed_ms"] = 0.0
		telemetry["growth_curve"] = []any{last}
		out[r.name] = c
	}
	return out
}

func TestWriteCampaignOracle(t *testing.T) {
	if os.Getenv("PSHARP_WRITE_GOLDENS") == "" {
		t.Skip("set PSHARP_WRITE_GOLDENS=1 to re-record " + campaignOraclePath)
	}
	data, err := json.MarshalIndent(campaignOracleRuns(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(campaignOraclePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignOracle(t *testing.T) {
	data, err := os.ReadFile(campaignOraclePath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]any
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := campaignOracleRuns(t)
	if len(got) != len(want) {
		t.Fatalf("%s records %d campaigns, the test runs %d", campaignOraclePath, len(want), len(got))
	}
	for name, w := range want {
		g := got[name]
		// Keys the recorded build did not write: replayed_share in the result,
		// the three shares in the telemetry. Each is the ratio of the result's
		// own counts, in both places.
		result := g["result"].(map[string]any)
		telemetry, _ := g["telemetry"].(map[string]any)
		points := result["total_scheduling_points"].(float64)
		if p, ok := result["pruned_points"].(float64); ok {
			points += p
		}
		for key, count := range map[string]string{
			"replayed_share": "replayed_points", "restored_share": "restored_points", "continued_share": "continued_points",
		} {
			c, _ := result[count].(float64)
			if share, _ := result[key].(float64); share != c/points {
				t.Errorf("%s: result.%s = %v, want %s/points = %v", name, key, result[key], count, c/points)
			}
			if telemetry[key] != result[key] {
				t.Errorf("%s: telemetry.%s = %v, result.%s = %v", name, key, telemetry[key], key, result[key])
			}
		}
		delete(result, "replayed_share")
		checkpointPolicy(t, name, g, w)
		for _, section := range []string{"version", "config", "result"} {
			if !reflect.DeepEqual(g[section], w[section]) {
				t.Errorf("%s: %s diverged from the recorded report:\n got %v\nwant %v", name, section, g[section], w[section])
			}
		}
		// A breakdown carries its whole Tally now, where the recorded build
		// wrote four of its counters: the keys it wrote must read the same.
		gs, _ := g["strategies"].([]any)
		ws, _ := w["strategies"].([]any)
		if len(gs) != len(ws) {
			t.Fatalf("%s: %d strategy breakdowns, recorded %d", name, len(gs), len(ws))
		}
		for i := range ws {
			supersetOf(t, fmt.Sprintf("%s: strategies[%d]", name, i), gs[i].(map[string]any), ws[i].(map[string]any))
		}
		gt, _ := g["telemetry"].(map[string]any)
		supersetOf(t, name+": telemetry", gt, w["telemetry"].(map[string]any))
	}
}

// checkpointPolicy holds what the snapshot policy of the depth-first
// checkpoints decides to the rule it must keep, then makes it read as
// recorded: a campaign may restore more points than the recorded build
// (which snapshotted at quiescent points only), never fewer, and its
// coverage counts — which count executed dispatches — may move, over the
// same transitions.
func checkpointPolicy(t *testing.T, name string, g, w map[string]any) {
	t.Helper()
	for _, section := range []string{"result", "telemetry"} {
		gs, _ := g[section].(map[string]any)
		ws, _ := w[section].(map[string]any)
		if gs == nil || ws == nil {
			continue
		}
		if got, want := gs["restored_points"], ws["restored_points"]; got != nil && want != nil && got.(float64) < want.(float64) {
			t.Errorf("%s: %s.restored_points = %v, the recorded build restored %v", name, section, got, want)
		}
		for _, key := range []string{"restored_points", "restored_share"} {
			if v, ok := ws[key]; ok {
				gs[key] = v
			}
		}
		gc, _ := gs["coverage"].([]any)
		wc, _ := ws["coverage"].([]any)
		if len(wc) == 0 || len(gc) != len(wc) {
			continue // nothing to hold, or reported by the comparison
		}
		transitions := func(c []any) []any {
			out := make([]any, len(c))
			for i, e := range c {
				m := maps.Clone(e.(map[string]any))
				delete(m, "count")
				out[i] = m
			}
			return out
		}
		if reflect.DeepEqual(transitions(gc), transitions(wc)) {
			gs["coverage"] = wc
		}
	}
}

// supersetOf fails unless got holds every key of want, with want's value.
func supersetOf(t *testing.T, what string, got, want map[string]any) {
	t.Helper()
	for key, v := range want {
		if !reflect.DeepEqual(got[key], v) {
			t.Errorf("%s.%s diverged from the recorded report:\n got %v\nwant %v", what, key, got[key], v)
		}
	}
}

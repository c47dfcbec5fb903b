package main

// CLI coverage for the reduction stack: -strategy dpor, -state-cache and the
// pruned/distinct-state fields of the campaign report. Their refusal
// combinations are rows of TestOptionMatrix.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/psharp-go/psharp/sct"
)

// TestDPORStateCacheCLIRoundTrip explores with -strategy dpor -state-cache,
// checks the bug trace replays from the file, and checks the campaign
// report carries the prune census.
func TestDPORStateCacheCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "bug.trace")
	report := filepath.Join(dir, "campaign.json")
	code, stdout, stderr := runCLI(t,
		"-bench", "TwoPhaseCommit", "-buggy", "-monitors",
		"-strategy", "dpor", "-state-cache",
		"-iterations", "5000",
		"-trace-out", trace, "-report-out", report)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (bug found)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "trace written to") {
		t.Fatalf("stdout does not confirm the trace write:\n%s", stdout)
	}

	code, stdout, _ = runCLI(t,
		"-bench", "TwoPhaseCommit", "-buggy", "-monitors",
		"-replay", trace)
	if code != 0 {
		t.Fatalf("replay exit code = %d, want 0 (bug reproduced)\nstdout: %s", code, stdout)
	}

	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var c sct.Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.Config.Strategy != "dpor" || !c.Config.StateCache {
		t.Fatalf("report config does not record dpor+state-cache: %+v", c.Config)
	}
	if c.Result.PrunedIterations == 0 || c.Result.DistinctStates == 0 {
		t.Fatalf("report lacks the prune census: pruned=%d distinct_states=%d",
			c.Result.PrunedIterations, c.Result.DistinctStates)
	}
	// Pruned iterations must stay out of the throughput accounting: the
	// explored count plus the pruned count is the attempt total, so the
	// explored count alone must be strictly smaller.
	if attempts := c.Result.Iterations + c.Result.PrunedIterations; c.Result.Iterations >= attempts {
		t.Fatalf("explored iterations (%d) not separated from pruned (%d)",
			c.Result.Iterations, c.Result.PrunedIterations)
	}
}

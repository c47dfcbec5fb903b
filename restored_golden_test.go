package psharp_test

// The checkpoint coverage gate. testdata/restored_golden.json records, per
// table2_reduced protocol and per depth-first configuration (dfs, and dpor
// with the state cache), how many of 300 attempts' scheduling points were
// restored from a checkpoint rather than executed — together with the counts
// that must not move whatever the checkpoints do. Every figure is an exact
// function of the search, so a change that loses checkpoint coverage fails
// here rather than as a slower benchmark. The name starts with
// TestCheckpoint so CI's "DPOR + state cache suite" step runs it under the
// race detector.
//
// Re-record (only when a deliberate change of the snapshot policy moves the
// restored counts) with:
//
//	PSHARP_WRITE_GOLDENS=1 go test -run TestWriteCheckpointRestoredGolden .

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

const restoredGoldenPath = "testdata/restored_golden.json"

// restoredProtocols are table2_reduced's programs, in its order.
var restoredProtocols = []string{"BoundedAsync", "German", "TwoPhaseCommit", "Chord", "ChainReplication", "AsyncSystemSim"}

const restoredAttempts = 300

// restoredCell is one search of restoredAttempts attempts.
type restoredCell struct {
	Key       string `json:"key"`
	Explored  int    `json:"explored"`
	Pruned    int    `json:"pruned"`
	States    int    `json:"states"`
	Points    int64  `json:"points"`    // of explored and pruned attempts
	Continued int64  `json:"continued"` // see psharp.IterationResult.ContinuedPoints
	Restored  int64  `json:"restored"`
}

func restoredCells(t *testing.T) []restoredCell {
	t.Helper()
	var cells []restoredCell
	for _, name := range restoredProtocols {
		b := protocols.MustByName(name, false)
		for _, cached := range []bool{false, true} {
			var s sct.Strategy = sct.NewDFS()
			key := b.ID() + "/dfs"
			if cached {
				s, key = sct.NewDPOR(), b.ID()+"/dpor+cache"
			}
			rep := sct.Run(b.Setup, sct.Options{Strategy: s, Iterations: restoredAttempts, MaxSteps: b.MaxSteps,
				LivelockAsBug: b.LivelockAsBug, StateCache: cached})
			if rep.BugFound() {
				t.Fatalf("%s: a bug in a correct protocol: %v", key, rep.FirstBug)
			}
			cells = append(cells, restoredCell{Key: key, Explored: rep.Iterations, Pruned: rep.PrunedIterations,
				States: rep.DistinctStates, Points: rep.TotalSchedulingPoints + rep.PrunedPoints,
				Continued: rep.ContinuedPoints, Restored: rep.RestoredPoints})
		}
	}
	return cells
}

func TestWriteCheckpointRestoredGolden(t *testing.T) {
	if os.Getenv("PSHARP_WRITE_GOLDENS") == "" {
		t.Skip("set PSHARP_WRITE_GOLDENS=1 to re-record " + restoredGoldenPath)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(restoredCells(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(restoredGoldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRestoredGolden wants every cell as recorded: the search's own
// counts (explored, pruned, states, points, continued points) because checkpoints must not move
// them, and the restored points because they are the coverage.
func TestCheckpointRestoredGolden(t *testing.T) {
	data, err := os.ReadFile(restoredGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []restoredCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := restoredCells(t)
	if len(got) != len(want) {
		t.Fatalf("%s lists %d cells, the test enumerates %d", restoredGoldenPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n  got %+v\n want %+v", want[i].Key, got[i], want[i])
		}
	}
}

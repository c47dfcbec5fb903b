package sct_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/psharp-go/psharp/sct"
)

// TestProgressSequentialSnapshots checks that a single-worker run emits
// snapshots in order, every ProgressEvery iterations, with monotone global
// counters.
func TestProgressSequentialSnapshots(t *testing.T) {
	var got []sct.Progress
	rep := sct.Run(fanInSetup(3), sct.Options{
		Strategy:      sct.NewRandom(1),
		Iterations:    100,
		MaxSteps:      1000,
		Progress:      func(p sct.Progress) { got = append(got, p) },
		ProgressEvery: 10,
	})
	if rep.Iterations != 100 {
		t.Fatalf("iterations = %d, want 100", rep.Iterations)
	}
	if len(got) != 10 {
		t.Fatalf("snapshots = %d, want 10", len(got))
	}
	for i, p := range got {
		if p.Worker != 0 || p.Workers != 1 {
			t.Fatalf("snapshot %d: worker %d/%d, want 0/1", i, p.Worker, p.Workers)
		}
		if want := (i + 1) * 10; p.WorkerIterations != want || p.Iterations != int64(want) {
			t.Fatalf("snapshot %d: iterations %d/%d, want %d", i, p.WorkerIterations, p.Iterations, want)
		}
		if p.Budget != 100 {
			t.Fatalf("snapshot %d: budget = %d, want 100", i, p.Budget)
		}
		if i > 0 && p.Distinct < got[i-1].Distinct {
			t.Fatalf("distinct count regressed: %d -> %d", got[i-1].Distinct, p.Distinct)
		}
	}
}

// TestProgressDisabled checks the ProgressEvery <= 0 path: a configured
// ProgressFunc must never fire.
func TestProgressDisabled(t *testing.T) {
	calls := 0
	sct.Run(fanInSetup(2), sct.Options{
		Strategy:   sct.NewRandom(1),
		Iterations: 50,
		MaxSteps:   1000,
		Progress:   func(sct.Progress) { calls++ },
	})
	if calls != 0 {
		t.Fatalf("ProgressEvery=0 still emitted %d snapshots", calls)
	}
}

// TestProgressParallelEmission checks — under -race — that parallel workers
// emit through one shared ProgressFunc without data races (emission is
// mutex-serialized by the engine) and that global counters never exceed the
// budget. Every worker owns 50 of the 200 iterations, so each must emit
// exactly its ten snapshots.
func TestProgressParallelEmission(t *testing.T) {
	var got []sct.Progress // appended without locking: the engine serializes
	sct.RunParallel(fanInSetup(3), sct.ParallelOptions{
		Options: sct.Options{
			Strategy:      sct.NewRandom(7),
			Iterations:    200,
			MaxSteps:      1000,
			Progress:      func(p sct.Progress) { got = append(got, p) },
			ProgressEvery: 5,
		},
		Workers: 4,
	})
	emitted := map[int]int{}
	for _, p := range got {
		if p.Workers != 4 {
			t.Fatalf("workers = %d, want 4", p.Workers)
		}
		if p.Iterations > int64(p.Budget) {
			t.Fatalf("global iterations %d exceed budget %d", p.Iterations, p.Budget)
		}
		if p.Strategy == "" {
			t.Fatalf("parallel snapshot without strategy label: %+v", p)
		}
		emitted[p.Worker]++
		if p.WorkerIterations != 5*emitted[p.Worker] {
			t.Fatalf("worker %d: snapshot %d reports %d worker iterations, want %d",
				p.Worker, emitted[p.Worker], p.WorkerIterations, 5*emitted[p.Worker])
		}
	}
	for w := 0; w < 4; w++ {
		if emitted[w] != 10 {
			t.Fatalf("worker %d emitted %d snapshots, want 10 (50 iterations at ProgressEvery 5): %v", w, emitted[w], emitted)
		}
	}
}

// TestProgressJSONLRoundTrip checks that the JSONL stream decodes back into
// the emitted snapshots.
func TestProgressJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sct.Run(fanInSetup(2), sct.Options{
		Strategy:      sct.NewRandom(1),
		Iterations:    40,
		MaxSteps:      1000,
		Progress:      sct.ProgressJSONL(&buf),
		ProgressEvery: 10,
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl lines = %d, want 4", len(lines))
	}
	for i, line := range lines {
		var p sct.Progress
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %d does not decode: %v (%s)", i, err, line)
		}
		if want := int64((i + 1) * 10); p.Iterations != want {
			t.Fatalf("line %d: iterations = %d, want %d", i, p.Iterations, want)
		}
		if p.Elapsed < 0 {
			t.Fatalf("line %d: negative elapsed %d", i, p.Elapsed)
		}
	}
}

// TestProgressTextGolden locks the human renderer's format against drift:
// both the sequential form and the worker-tagged parallel form render fixed
// snapshots and compare against the golden file.
func TestProgressTextGolden(t *testing.T) {
	var buf bytes.Buffer
	render := sct.ProgressText(&buf)
	render(sct.Progress{
		Worker: 0, Workers: 1, WorkerIterations: 100,
		Iterations: 100, Budget: 1000, Buggy: 2, Distinct: 87,
		Elapsed: 1234 * time.Millisecond,
	})
	render(sct.Progress{
		Worker: 3, Workers: 4, Strategy: "pct", WorkerIterations: 25,
		Iterations: 180, Budget: 1000, Buggy: 0, Distinct: 44,
		Elapsed: 2500600 * time.Microsecond,
	})
	golden := filepath.Join("testdata", "progress.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("progress format drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

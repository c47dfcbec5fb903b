package psharp_test

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// TestChessLikeModeAddsSchedulingPoints checks the Table 2 baseline
// mechanism: CHESS-granularity scheduling points (queue lock + dequeue)
// strictly inflate the number of scheduling decisions per schedule on the
// same program.
func TestChessLikeModeAddsSchedulingPoints(t *testing.T) {
	done := 0
	setup := pingPongSetup(3, &done)
	run := func(chess bool) int {
		s := sct.NewRandom(11)
		s.PrepareIteration(0)
		res := psharp.RunTest(setup, psharp.TestConfig{
			Strategy: s, MaxSteps: 10000, ChessLike: chess,
		})
		if res.Bug != nil {
			t.Fatalf("bug: %v", res.Bug)
		}
		return res.SchedulingPoints
	}
	plain := run(false)
	chess := run(true)
	if chess <= plain {
		t.Fatalf("CHESS-granularity points (%d) must exceed send/create-only points (%d)", chess, plain)
	}
	if chess < plain*2 {
		t.Logf("note: chess=%d plain=%d (ratio %.1f)", chess, plain, float64(chess)/float64(plain))
	}
}

// Shared-location machines for the RD-on integration test: two writers
// touch the same declared location with no ordering between them.

type rdPoke struct{ psharp.EventBase }

// rdWriter writes its location on every poke.
type rdWriter struct {
	psharp.StaticBase
	loc string
}

func (*rdWriter) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").OnEventDoM(&rdPoke{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		ctx.Write(m.(*rdWriter).loc)
	})
}

// rdSpinner pokes itself on every poke.
type rdSpinner struct{ psharp.StaticBase }

func (*rdSpinner) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").OnEventDoM(&rdPoke{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		ctx.Send(ctx.ID(), &rdPoke{})
	})
}

func racingSetup(racy bool) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		for i, loc := range []string{"shared.cell", "shared.cell2"} {
			loc := loc
			if racy {
				loc = "shared.cell" // both writers hit the same location
			}
			name := []string{"W1", "W2"}[i]
			r.MustRegister(name, func() psharp.Machine { return &rdWriter{loc: loc} })
			id := r.MustCreate(name, nil)
			if err := r.SendEvent(id, &rdPoke{}); err != nil {
				panic(err)
			}
		}
	}
}

// TestRaceDetectorIntegration checks RD-on end to end: unordered writes to
// the same location are reported, distinct locations are not.
func TestRaceDetectorIntegration(t *testing.T) {
	run := func(racy bool) []string {
		s := sct.NewRandom(5)
		s.PrepareIteration(0)
		res := psharp.RunTest(racingSetup(racy), psharp.TestConfig{
			Strategy: s, MaxSteps: 1000, RaceDetect: true,
		})
		return res.Races
	}
	if races := run(true); len(races) == 0 {
		t.Fatal("RD-on must report the unordered same-location writes")
	}
	if races := run(false); len(races) != 0 {
		t.Fatalf("distinct locations must not race: %v", races)
	}
}

// TestRaceAsBugStopsIteration checks that RaceAsBug converts the detector
// report into an iteration-ending bug.
func TestRaceAsBugStopsIteration(t *testing.T) {
	s := sct.NewRandom(5)
	s.PrepareIteration(0)
	res := psharp.RunTest(racingSetup(true), psharp.TestConfig{
		Strategy: s, MaxSteps: 1000, RaceDetect: true, RaceAsBug: true,
	})
	if res.Bug == nil || res.Bug.Kind != psharp.BugDataRace {
		t.Fatalf("want a data-race bug, got %v", res.Bug)
	}
}

// TestTraceEncodingRoundTripProperty fuzzes Decision sequences through the
// text encoding with testing/quick.
func TestTraceEncodingRoundTripProperty(t *testing.T) {
	types := slices.Repeat([]string{"M"}, 1<<16) // every Seq a uint16 draws, plus one
	prop := func(kinds []uint8, seqs []uint16, ints []int16) bool {
		tr := &psharp.Trace{Types: types}
		for i, k := range kinds {
			switch k % 3 {
			case 0:
				seq := uint64(1)
				if i < len(seqs) {
					seq = uint64(seqs[i]) + 1
				}
				tr.Decisions = append(tr.Decisions, psharp.Decision{
					Kind:    psharp.DecisionSchedule,
					Machine: psharp.MachineRef{Seq: seq},
				})
			case 1:
				tr.Decisions = append(tr.Decisions, psharp.Decision{
					Kind: psharp.DecisionBool, Bool: k%2 == 0,
				})
			case 2:
				v := int32(0)
				if i < len(ints) {
					v = int32(ints[i])
					if v < 0 {
						v = -v
					}
				}
				tr.Decisions = append(tr.Decisions, psharp.Decision{
					Kind: psharp.DecisionInt, Int: v,
				})
			}
		}
		var sb strings.Builder
		if err := tr.Encode(&sb); err != nil {
			return false
		}
		back, err := psharp.DecodeTrace(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if len(back.Decisions) != len(tr.Decisions) {
			return false
		}
		for i := range back.Decisions {
			if back.Decisions[i] != tr.Decisions[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLivelockDetection checks the depth-bound livelock mechanism on a
// minimal self-sending machine (the paper's German livelock pattern).
func TestLivelockDetection(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Spinner", func() psharp.Machine { return &rdSpinner{} })
		id := r.MustCreate("Spinner", nil)
		if err := r.SendEvent(id, &rdPoke{}); err != nil {
			panic(err)
		}
	}
	s := sct.NewRandom(1)
	s.PrepareIteration(0)
	res := psharp.RunTest(setup, psharp.TestConfig{
		Strategy: s, MaxSteps: 200, LivelockAsBug: true,
	})
	if res.Bug == nil || res.Bug.Kind != psharp.BugLivelock {
		t.Fatalf("want a livelock bug at the depth bound, got %v", res.Bug)
	}
	if !res.BoundReached {
		t.Fatal("BoundReached must be set")
	}
}

// TestProductionRuntimeStress runs many production-mode iterations of the
// ping-pong program concurrently with the Go race detector-friendly
// structure (this test is most valuable under `go test -race`).
func TestProductionRuntimeStress(t *testing.T) {
	for i := 0; i < 50; i++ {
		done := 0
		rt := psharp.NewRuntime(psharp.WithSeed(uint64(i)))
		pingPongSetup(4, &done)(rt)
		if err := rt.Wait(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		rt.Stop()
		if done != 1 {
			t.Fatalf("iteration %d: done=%d", i, done)
		}
	}
}

package sct

// What a cursor decoder owes a journal it did not write: an error, never a
// search that dies later.

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
)

// cursorLayouts are the searches a cursor can belong to, as far as
// LoadCursor tells them apart.
var cursorLayouts = []struct {
	name          string
	shard, shards int
}{
	{"dfs", 0, 1}, {"dpor", 0, 1}, {"dfs", 1, 3}, {"dpor", 2, 3}, {"delay", 0, 1}, {"delay", 1, 3},
}

func ids(seqs ...uint64) []psharp.MachineID {
	out := make([]psharp.MachineID, len(seqs))
	for i, s := range seqs {
		out[i] = psharp.MachineID{Type: "M", Seq: s}
	}
	return out
}

func cursorStrategy(t testing.TB, name string, shard, shards int) Strategy {
	s, err := NewStrategy(name, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 1 {
		s = s.CloneForWorker(shard, shards)
	}
	return s
}

// searchOn runs up to n attempts of b under s, local iterations from, from+1,
// …, and returns what the search panicked with, if it did.
func searchOn(s Strategy, b protocols.Benchmark, from, n int) (panicked any) {
	h := psharp.NewTestHarness(b.SetupMonitored())
	defer h.Close()
	defer func() { panicked = recover() }()
	cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
	for i := from; i < from+n && s.PrepareIteration(i); i++ {
		h.Run(cfg)
	}
	return nil
}

// TestCursorRefusesBranchOutOfRange: a node on a branch it does not have —
// which, loaded, would index past the node's machines or its explored set at
// the next PrepareIteration — is refused by name. Then the same, without
// knowing the layout: whatever one overwritten byte of a real frontier turns
// it into either does not load or is searched without a runtime error.
func TestCursorRefusesBranchOutOfRange(t *testing.T) {
	machines := ids(1, 2)
	for _, reduce := range []bool{false, true} {
		src := tree{reduce: reduce, shards: 1, stack: []node{
			{kind: psharp.DecisionSchedule, options: 2, idx: 1, machines: machines},
			{kind: psharp.DecisionSchedule, options: 2, idx: 7, machines: machines},
		}}
		if reduce {
			for i := range src.stack {
				src.stack[i].red = &reduction{flags: []uint8{toExplore, toExplore}}
			}
		}
		err := (&tree{reduce: reduce, shards: 1}).LoadCursor(src.SaveCursor())
		if err == nil || !strings.Contains(err.Error(), "node 1 is on branch 7 of 2") {
			t.Errorf("reduce=%t: branch 7 of 2 machines: got error %v", reduce, err)
		}
		// More options than machines cannot even be written down: a schedule
		// node's machines are counted by its options.
		src.stack[1].idx, src.stack[1].options = 1, 3
		if err := (&tree{reduce: reduce, shards: 1}).LoadCursor(src.SaveCursor()); err == nil {
			t.Errorf("reduce=%t: a schedule node with 3 options and 2 machines loaded", reduce)
		}
	}

	b := protocols.MustByName("AsyncSystemSim", false)
	for _, name := range []string{"dfs", "dpor", "delay"} {
		s := cursorStrategy(t, name, 0, 1)
		if p := searchOn(s, b, 0, 40); p != nil {
			t.Fatal(p)
		}
		blob := s.SaveCursor()
		loaded := 0
		for i := range blob {
			for _, v := range []byte{7, 0x7f} {
				mutated := bytes.Clone(blob)
				mutated[i] = v
				fresh := cursorStrategy(t, name, 0, 1)
				if fresh.LoadCursor(mutated) != nil {
					continue
				}
				loaded++
				if p, bad := searchOn(fresh, b, 40, 5).(runtime.Error); bad {
					t.Fatalf("%s cursor with byte %d of %d set to %#x loaded, then: %v", name, i, len(blob), v, p)
				}
			}
		}
		t.Logf("%s: %d of %d one-byte corruptions of a %d-byte cursor still load", name, loaded, 2*len(blob), len(blob))
	}
}

// FuzzLoadCursor: LoadCursor returns an error, or the strategy it loaded
// saves the very bytes it was given and searches on without a runtime error.
// (A well-formed frontier of another program ends in the search's own replay
// divergence panic, which is the right answer to it.)
func FuzzLoadCursor(f *testing.F) {
	tpc := protocols.MustByName("TwoPhaseCommit", false)
	for _, b := range []protocols.Benchmark{tpc, protocols.MustByName("German", true)} {
		for li, l := range cursorLayouts {
			s := cursorStrategy(f, l.name, l.shard, l.shards)
			if p := searchOn(s, b, 0, 25); p != nil {
				f.Fatal(p)
			}
			f.Add(s.SaveCursor(), uint8(li))
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte, layout uint8) {
		l := cursorLayouts[int(layout)%len(cursorLayouts)]
		s := cursorStrategy(t, l.name, l.shard, l.shards)
		if s.LoadCursor(blob) != nil {
			return
		}
		if got := s.SaveCursor(); !bytes.Equal(got, blob) {
			t.Fatalf("loaded %x\n saves %x", blob, got)
		}
		if p, bad := searchOn(s, tpc, 25, 50).(runtime.Error); bad {
			t.Fatalf("search under loaded cursor %x: %v", blob, p)
		}
	})
}

// TestDelayCursorRoundTripsEveryShard: every worker of a delay search split
// four ways, at budgets 0 and 2, saves after every iteration a cursor that
// a fresh clone loads — exhausted workers, and those the budget leaves
// nothing, included — and the search carried on from each reload explores
// the schedules the uninterrupted one does.
func TestDelayCursorRoundTripsEveryShard(t *testing.T) {
	b := protocols.MustByName("Chord", true)
	cfg := psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
	explore := func(budget, w int, reload bool) map[uint64]bool {
		h := psharp.NewTestHarness(b.SetupMonitored())
		defer h.Close()
		clone := func() *DelayBounding { return NewDelayBounding(0, budget, 0).CloneForWorker(w, 4).(*DelayBounding) }
		s := clone()
		fps := make(map[uint64]bool)
		for i := 0; ; i++ {
			more := s.PrepareIteration(i)
			if more {
				cfg.Strategy = s
				fps[fingerprintTrace(h.Run(cfg).Trace)] = true
			}
			if reload {
				fresh := clone()
				if err := fresh.LoadCursor(s.SaveCursor()); err != nil {
					t.Fatalf("budget %d, worker %d of 4, after iteration %d: %v", budget, w, i, err)
				}
				s = fresh
			}
			if !more {
				if !s.Exhausted() {
					t.Fatalf("budget %d, worker %d of 4: stopped unexhausted", budget, w)
				}
				return fps
			}
		}
	}
	for _, budget := range []int{0, 2} {
		for w := range 4 {
			whole, reloaded := explore(budget, w, false), explore(budget, w, true)
			t.Logf("budget %d, worker %d of 4: %d distinct schedules", budget, w, len(whole))
			if len(whole) != len(reloaded) {
				t.Errorf("budget %d, worker %d of 4: %d distinct schedules uninterrupted, %d reloaded after each", budget, w, len(whole), len(reloaded))
			}
			for fp := range whole {
				if !reloaded[fp] {
					t.Fatalf("budget %d, worker %d of 4: a schedule is missing once reloaded", budget, w)
				}
			}
		}
	}
}

// TestStrategiesAllocateNothingPerIteration holds the strategies' half of
// the allocation caps: a seeded strategy rewinds its stream and clears its
// plan in place, and a fresh one, clone or not, also answers controlled
// choices before any PrepareIteration; a search, once its stack has grown to
// the schedule's depth, reuses the nodes and enabled sets it popped —
// backtracking, restarting under the next delay bound, replaying and
// extending the frontier.
func TestStrategiesAllocateNothingPerIteration(t *testing.T) {
	enabled := ids(1, 2, 3, 4, 5)
	for _, tc := range []struct {
		name   string
		s      Strategy
		seeded bool
	}{
		{"random", NewRandom(7), true},
		{"pct", NewPCT(7, 3, 50), true},
		{"pct clone", NewPCT(7, 3, 50).CloneForWorker(1, 2), true},
		{"dfs", NewDFS(), false},
		{"delay", NewDelayBounding(0, 2, 0), false},
		{"delay clone", NewDelayBounding(0, 2, 0).CloneForWorker(1, 2), false},
	} {
		if tc.seeded {
			tc.s.NextBool()
			tc.s.NextInt(3)
		}
		iter := 0
		iteration := func() {
			tc.s.PrepareIteration(iter)
			iter++
			current := enabled[0]
			for point := 0; point < 50; point++ {
				current = tc.s.NextMachine(current, enabled[point%2:])
			}
			tc.s.NextBool()
			tc.s.NextInt(3)
		}
		iteration()
		if allocs := testing.AllocsPerRun(100, iteration); allocs != 0 {
			t.Errorf("%s: %.2f allocations per iteration after the first, want 0", tc.name, allocs)
		}
	}
}

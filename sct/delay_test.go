package sct_test

// Delay bounding's oracle: the delay-bounded search explores exactly the
// schedules of the depth-first tree that need at most its budget of delays,
// where a schedule's delays are counted from its decisions alone.

import (
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// delayCounter is DFS counting the delays of the schedule it is exploring:
// at each schedule decision, how far past the round-robin base — the first
// enabled machine whose Seq is at least the current one's, else the first —
// the pick lies in the enabled set, cyclically.
type delayCounter struct {
	*sct.DFS
	delays int
}

func (d *delayCounter) PrepareIteration(iter int) bool {
	d.delays = 0
	return d.DFS.PrepareIteration(iter)
}

func (d *delayCounter) Decide(c *psharp.Choice, dec *psharp.Decision) {
	d.DFS.Decide(c, dec)
	if c.Kind != psharp.ChoiceMachine {
		return
	}
	base, pick := -1, -1
	for i, m := range c.Enabled {
		if base < 0 && m.Seq >= c.Current.Seq {
			base = i
		}
		if m.Seq == dec.Machine.Seq {
			pick = i
		}
	}
	base = max(base, 0)
	d.delays += (pick - base + len(c.Enabled)) % len(c.Enabled)
}

// exploreAll runs s on setup until it is exhausted, at most 100 000
// schedules, and returns each schedule's fingerprint with the delays it
// spent, if delays counts them, and whether s was exhausted.
func exploreAll(t *testing.T, setup func(*psharp.Runtime), s sct.Strategy, delays func() int) (map[uint64]int, bool) {
	t.Helper()
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	// The race detector keeps the harness from restoring checkpoints, so a
	// counting strategy is asked every decision of every schedule.
	cfg := psharp.TestConfig{Strategy: s, MaxSteps: 1000, RaceDetect: delays != nil}
	fps := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		if !s.PrepareIteration(i) {
			return fps, true
		}
		res := h.Run(cfg)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		d := 0
		if delays != nil {
			d = delays()
		}
		fps[sct.FingerprintTrace(res.Trace)] = d
	}
	return fps, false
}

// TestDelayBoundingIsDFSFilteredByDelays: on programs whose depth-first tree
// exhausts, delay bound b explores exactly the DFS schedules with at most b
// delays, and says it is exhausted.
func TestDelayBoundingIsDFSFilteredByDelays(t *testing.T) {
	for _, p := range []struct {
		name  string
		setup func(*psharp.Runtime)
	}{
		{"orderBug", orderBugSetup}, {"fanIn2", fanInSetup(2)}, {"fanIn3", fanInSetup(3)},
	} {
		counter := &delayCounter{DFS: sct.NewDFS()}
		all, done := exploreAll(t, p.setup, counter, func() int { return counter.delays })
		if !done {
			t.Fatalf("%s: DFS did not exhaust", p.name)
		}
		for b := 0; b <= 2; b++ {
			got, done := exploreAll(t, p.setup, sct.NewDelayBounding(0, b, 0), nil)
			if !done {
				t.Errorf("%s: delay bound %d did not exhaust", p.name, b)
			}
			want := 0
			for fp, d := range all {
				if d > b {
					continue
				}
				want++
				if _, ok := got[fp]; !ok {
					t.Errorf("%s: a DFS schedule with %d delays is missing under bound %d", p.name, d, b)
				}
			}
			if len(got) != want {
				t.Errorf("%s: bound %d explored %d distinct schedules, DFS has %d with at most %d delays", p.name, b, len(got), want, b)
			}
			t.Logf("%s: bound %d: %d of %d DFS schedules", p.name, b, len(got), len(all))
		}
	}
}

// TestDelayBoundingTable2: at budget 2, monitored, 10 000 schedules, the
// delay-bounded search finds the bug of every Table 2 protocol but Raft,
// exhausts six of them, and explores Raft with next to no repeats.
func TestDelayBoundingTable2(t *testing.T) {
	exhausts := map[string]bool{
		"BoundedAsync": true, "BasicPaxos": true, "TwoPhaseCommit": true,
		"Chord": true, "MultiPaxos": true, "ChainReplication": true,
	}
	for _, name := range []string{"BoundedAsync", "German", "BasicPaxos", "TwoPhaseCommit", "Chord", "MultiPaxos", "Raft", "ChainReplication"} {
		b := protocols.MustByName(name, true)
		s, err := sct.NewStrategy("delay", 1, b.MaxSteps)
		if err != nil {
			t.Fatal(err)
		}
		rep := sct.Run(b.SetupMonitored(), sct.Options{Strategy: s, Iterations: 10000, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug})
		t.Logf("%s: %s", name, rep.String())
		if found := rep.BugFound(); found == (name == "Raft") {
			t.Errorf("%s: bug found %t", name, found)
		}
		if rep.Exhausted != exhausts[name] {
			t.Errorf("%s: exhausted %t, want %t", name, rep.Exhausted, exhausts[name])
		}
		if name == "Raft" && rep.DistinctSchedules < 9800 {
			t.Errorf("Raft: %d distinct schedules in %d, want at least 9 800", rep.DistinctSchedules, rep.Iterations)
		}
	}
}

// TestDelayBoundingShardsCoverTheSearch: three or four workers, each owning
// the schedules whose first delay is at a depth of its residue, explore
// together the schedules one worker explores, and exhaust; and the work is
// shared: no worker runs less than half of an even share.
func TestDelayBoundingShardsCoverTheSearch(t *testing.T) {
	for _, name := range []string{"Chord", "BoundedAsync"} {
		b := protocols.MustByName(name, true)
		var distinct [3]int
		for i, workers := range []int{1, 3, 4} {
			rep := sct.RunParallel(b.SetupMonitored(), sct.ParallelOptions{
				Options: sct.Options{Strategy: sct.NewDelayBounding(0, 2, 0), Iterations: 20000, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug},
				Workers: workers,
			})
			if !rep.Exhausted {
				t.Errorf("%s, %d workers: not exhausted after %d schedules", name, workers, rep.Iterations)
			}
			distinct[i] = rep.DistinctSchedules
			for w, wr := range rep.Workers {
				if 2*workers*wr.Report.Iterations < rep.Iterations {
					t.Errorf("%s: worker %d of %d ran %d of %d schedules", name, w, workers, wr.Report.Iterations, rep.Iterations)
				}
			}
		}
		if distinct[1] != distinct[0] || distinct[2] != distinct[0] {
			t.Errorf("%s: %d distinct schedules on one worker, %d on three, %d on four", name, distinct[0], distinct[1], distinct[2])
		}
	}
}

package sct

import (
	"slices"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
)

// sleepFold is the sleep set n executed steps leave, folded over the stack
// from the root: each reduced node's explored siblings go to sleep, and
// every entry dependent with the node's step wakes. It is what ResumeAt
// computed before each reduced node kept the set its step left, and the
// oracle that set is held to.
func sleepFold(t *tree, n int) []footprint {
	var sleep []footprint
	for i := range t.stack[:n] {
		r := t.stack[i].red
		if r == nil {
			continue
		}
		for _, d := range r.done {
			sleep = append(sleep, seqs(d))
		}
		op := seqs(r.op)
		sleep = slices.DeleteFunc(sleep, func(e footprint) bool { return dependent(e, op) })
	}
	return sleep
}

// TestResumeSleepSetIsTheFold: on the six protocols of the reduced Table 2
// column, after every iteration of DPOR with a state cache, the sleep set
// ResumeAt leaves for every position the next iteration may resume at — any
// up to the prefix it repeats, the checkpoint being wherever the harness
// holds one — is the fold over the stack up to there.
func TestResumeSleepSetIsTheFold(t *testing.T) {
	for _, name := range []string{"BoundedAsync", "German", "TwoPhaseCommit", "Chord", "ChainReplication", "AsyncSystemSim"} {
		b := protocols.MustByName(name, false)
		s := NewDPOR()
		h := psharp.NewTestHarness(b.Setup)
		cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, StateCache: new(stateCache)}
		var prev []psharp.Decision
		checked, restored := 0, 0
		for i := 0; i < 300 && s.PrepareIteration(i); i++ {
			if i > 0 {
				k := s.RepeatedPrefix(prev)
				for n := 0; n <= k; n++ {
					s.ResumeAt(n)
					if want := sleepFold(&s.tree, n); !slices.Equal(s.curSleep, want) {
						t.Fatalf("%s, iteration %d: ResumeAt(%d) leaves sleep set %v, the fold over the prefix is %v", name, i, n, s.curSleep, want)
					}
					checked++
				}
				s.ResumeAt(0) // as PrepareIteration left it
			}
			res := h.Run(cfg)
			if res.Err != nil || res.Bug != nil {
				t.Fatalf("%s, iteration %d: err %v, bug %v", name, i, res.Err, res.Bug)
			}
			if res.RestoredPoints > 0 {
				restored++
			}
			prev = append(prev[:0], res.Trace.Decisions...)
		}
		h.Close()
		if checked == 0 || restored == 0 {
			t.Fatalf("%s: %d sleep sets checked, %d iterations restored", name, checked, restored)
		}
	}
}

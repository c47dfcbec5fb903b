package sct

import (
	"time"

	"github.com/psharp-go/psharp"
)

// Test-only entry to the engine with checkpoints off, for the equivalence
// tests: there is no option for it.

// forgetfulDFS and forgetfulDPOR are the depth-first strategies promising to
// repeat nothing of the iteration before (psharp.PrefixResumer: "0 when in
// doubt"), so that their harness never takes or restores a checkpoint and
// every attempt runs from setup, as every attempt did before checkpoints
// existed. Everything else is the embedded strategy's.
type forgetfulDFS struct{ *DFS }

func (forgetfulDFS) RepeatedPrefix([]psharp.Decision) int { return 0 }

type forgetfulDPOR struct{ *DPOR }

func (forgetfulDPOR) RepeatedPrefix([]psharp.Decision) int { return 0 }

// RunWithoutCheckpoints is Run for a DFS or DPOR strategy with checkpoints
// off. It enters the engine below Validate, which would not know the wrapper
// for a depth-first strategy.
func RunWithoutCheckpoints(setup func(*psharp.Runtime), opts Options) Report {
	if err := (ParallelOptions{Options: opts, Workers: 1}).Validate(); err != nil {
		panic("sct: " + err.Error())
	}
	workers := []worker{{label: strategyName(opts.Strategy), stride: 1, quota: opts.Iterations}}
	w := &workers[0]
	switch s := opts.Strategy.(type) {
	case *DFS:
		w.strategy = forgetfulDFS{s}
	case *DPOR:
		w.strategy = forgetfulDPOR{s}
	default:
		panic("sct: RunWithoutCheckpoints wants a DFS or a DPOR")
	}
	sh := newShared(opts, time.Now(), workers)
	rep := runWorker(setup, sh, w)
	rep.DistinctSchedules = sh.fingerprints.size()
	rep.DistinctStates = sh.cache.size()
	return rep
}

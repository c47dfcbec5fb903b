package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// table2_reduced: the same controller used for systematic search. The
// correct protocol variants under plain DFS, then under DPOR with the
// hashed state cache; an operation is one attempt (an explored or a pruned
// schedule). DPOR+cache pays a footprint per step and a global-state hash
// per scheduling point, so statehash and the strategy dominate here and
// the goroutine handoff does not. Both enumerations are deterministic: the
// seed does not change this workload's inputs.
var reducedProtocols = []string{"BoundedAsync", "German", "TwoPhaseCommit", "Chord", "ChainReplication", "AsyncSystemSim"}

const (
	reducedDFSAttempts  = 1000
	reducedDPORAttempts = 300
)

type table2Reduced struct {
	scale int
	progs []protocols.Benchmark
}

func setupTable2Reduced(_ uint64, scale int) (instance, error) {
	w := &table2Reduced{scale: scale}
	for _, name := range reducedProtocols {
		w.progs = append(w.progs, protocols.MustByName(name, false))
	}
	for _, b := range w.progs {
		if _, err := explore(nil, b, false, scaled(reducedDFSAttempts, 5*scale, 2)); err != nil {
			return nil, err
		}
		if _, err := explore(nil, b, true, scaled(reducedDPORAttempts, 5*scale, 2)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// exploration is what a fixed number of attempts produced.
type exploration struct {
	explored, pruned, states int
	points                   int64
	wall                     time.Duration
}

// explore makes the given number of attempts on b, DFS or DPOR+cache. A
// search that exhausts its tree first (Chord under DPOR+cache does, after a
// few hundred attempts) starts again, so every cell does its full count.
func explore(tr *tracer, b protocols.Benchmark, reduced bool, attempts int) (exploration, error) {
	var e exploration
	name := "sct.Run.dfs"
	if reduced {
		name = "sct.Run.dpor+cache"
	}
	start := time.Now()
	for done := 0; done < attempts; {
		var s sct.Strategy = sct.NewDFS()
		if reduced {
			s = sct.NewDPOR()
		}
		opts := sctOptions(b, s, attempts-done)
		opts.StateCache = reduced
		var rep sct.Report
		tr.do(name, func() { rep = sct.Run(b.Setup, opts) })
		if rep.BugFound() {
			return e, fmt.Errorf("table2_reduced: %s reports a bug in the correct %s: %v", name, b.ID(), rep.FirstBug)
		}
		if rep.Interrupted || rep.Iterations+rep.PrunedIterations == 0 {
			return e, fmt.Errorf("table2_reduced: %s on %s made no progress", name, b.ID())
		}
		done += rep.Iterations + rep.PrunedIterations
		e.explored += rep.Iterations
		e.pruned += rep.PrunedIterations
		e.states += rep.DistinctStates
		e.points += rep.TotalSchedulingPoints
	}
	e.wall = time.Since(start)
	return e, nil
}

func (w *table2Reduced) round(tr *tracer, rr *roundResult) error {
	for _, b := range w.progs {
		for _, reduced := range []bool{false, true} {
			attempts, label := scaled(reducedDFSAttempts, w.scale, 4), ".dfs"
			if reduced {
				attempts, label = scaled(reducedDPORAttempts, w.scale, 4), ".dpor+cache"
			}
			e, err := explore(tr, b, reduced, attempts)
			if err != nil {
				return err
			}
			rr.add(cell{name: b.Name + label, ops: int64(e.explored + e.pruned), steps: e.points, wall: e.wall})
			rr.count(b.Name+label+".pruned", int64(e.pruned))
			rr.count(b.Name+label+".states", int64(e.states))
		}
	}
	return nil
}

func (w *table2Reduced) close() error { return nil }

// neverPrune is a state cache that sees every global-state hash and never
// cuts a schedule short: attaching it makes the controller hash the state
// at every scheduling point while the schedules stay those of the run
// without it.
type neverPrune struct{}

func (neverPrune) Visit(_, _ uint64, _ int) bool { return false }

func (w *table2Reduced) layers(tr *tracer, rounds []roundResult, out map[string]float64) error {
	var dfsWall, redWall time.Duration
	var dfsOps, redOps, pruned, states int64
	for _, rr := range rounds {
		for i, c := range rr.cells {
			if i%2 == 0 {
				dfsWall, dfsOps = dfsWall+c.wall, dfsOps+c.ops
			} else {
				redWall, redOps = redWall+c.wall, redOps+c.ops
			}
		}
		for _, c := range rr.counts {
			if strings.HasSuffix(c.name, ".pruned") {
				pruned += c.value
			} else {
				states += c.value
			}
		}
	}
	out["sct.dfs_us_per_attempt"] = float64(dfsWall.Microseconds()) / float64(dfsOps)
	out["sct.reduced_us_per_attempt"] = float64(redWall.Microseconds()) / float64(redOps)
	out["statehash.prune_share"] = float64(pruned) / float64(redOps)
	out["statehash.distinct_states_per_s"] = float64(states) / redWall.Seconds()

	tpc := protocols.MustByName("TwoPhaseCommit", false)
	iters := scaled(1000, w.scale, 10)
	var err error
	for _, s := range []struct {
		name  string
		fresh func() sct.Strategy
	}{
		{"dfs", func() sct.Strategy { return sct.NewDFS() }},
		{"dpor", func() sct.Strategy { return sct.NewDPOR() }},
	} {
		tr.do("probe.decide."+s.name, func() {
			out["sct.decide_ns_per_sp."+s.name], err = decideCost(tpc, iters, probeReps, s.fresh)
		})
		if err != nil {
			return err
		}
	}

	// The state hash alone: DFS with and without a cache that never prunes.
	tr.do("probe.statehash", func() {
		cfg := testConfig(tpc)
		hashing := cfg
		hashing.StateCache = neverPrune{}
		runs := interleave(probeReps,
			func() harnessRun { return loopHarness(tpc.Setup, cfg, iters, prepared(sct.NewDFS())) },
			func() harnessRun { return loopHarness(tpc.Setup, hashing, iters, prepared(sct.NewDFS())) })
		if runs[0].hash != runs[1].hash {
			err = fmt.Errorf("table2_reduced: statehash ablation: schedules differ with the hash on")
		}
		out["statehash.hash_ns_per_sp"] = runs[1].nsPerPoint() - runs[0].nsPerPoint()
	})
	if err != nil {
		return err
	}

	// How much of the tree DPOR still walks: both searches run Chord, whose
	// tree the cache makes small enough to exhaust, to the end.
	chord := protocols.MustByName("Chord", false)
	var dfs, dpor sct.Report
	tr.do("probe.dpor_share", func() {
		budget := scaled(20000, w.scale, 50)
		o := sctOptions(chord, sct.NewDFS(), budget)
		o.StateCache = true
		dfs = sct.Run(chord.Setup, o)
		o = sctOptions(chord, sct.NewDPOR(), budget)
		o.StateCache = true
		dpor = sct.Run(chord.Setup, o)
	})
	out["sct.dpor_explored_share"] = float64(dpor.Iterations+dpor.PrunedIterations) / float64(dfs.Iterations+dfs.PrunedIterations)
	return nil
}

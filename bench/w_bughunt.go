package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// bughunt: the user's question — how long until the bug. Every hunt is a
// fresh campaign that stops at its first bug and then confirms it by
// replaying its trace, so a hunt pays campaign start-up (harness, goroutine
// pool, schema compile) every time. The cells are the (protocol, strategy)
// pairs whose bug falls within a handful of schedules, which makes a hunt
// start-up bound: an optimisation that speeds the steady state by making
// start-up dearer loses here. A cell hunts under many seeds because one
// hunt's cost varies about as much as its mean.
//
// Left out, on purpose:
//   - Raft under pct(d=3) misses its bug in about seven hunts of ten within
//     the budget, and the benchmark runs no operation that fails;
//   - BoundedAsync, TwoPhaseCommit and Raft under random need 22, 78 and 98
//     schedules a hunt on average: their time to the bug is schedules times
//     the rate table2_random measures, with a geometric tail that moves
//     hunts per second by a fifth from one seed to the next.
const huntBudget = 2000

var huntCells = []struct {
	protocol, strategy string
	hunts              int
}{
	{"BoundedAsync", "pct", 240},
	{"German", "random", 32}, // a German schedule runs to its 3 000-step bound: 3 ms a hunt
	{"German", "pct", 32},
	{"BasicPaxos", "random", 240},
	{"BasicPaxos", "pct", 240},
	{"TwoPhaseCommit", "pct", 240},
	{"Chord", "random", 240},
	{"Chord", "pct", 240},
	{"MultiPaxos", "random", 240},
	{"MultiPaxos", "pct", 240},
	{"ChainReplication", "random", 240},
	{"ChainReplication", "pct", 240},
	// Systematic search is deterministic: these cells repeat one hunt.
	{"Chord", "dfs", 48},
	{"Chord", "dpor+cache", 48},
	{"MultiPaxos", "dfs", 48},
	{"MultiPaxos", "dpor+cache", 48},
	{"ChainReplication", "dfs", 48},
	{"ChainReplication", "dpor+cache", 48},
	// The one hunt the reductions make possible: 1 237 attempts, where plain
	// DFS has not found the bug after 4 000.
	{"BoundedAsync", "dpor+cache", 1},
}

type hunt struct {
	b        protocols.Benchmark
	strategy string
	hunts    int
	stream   int // subseed stream of the cell's first hunt
}

type bughunt struct {
	seed  uint64
	scale int
	cells []hunt
	// filled by traced rounds, for the per-layer percentiles: per found bug,
	// the schedules and milliseconds its hunt took, and the replays' total
	schedules, elapsedMS []float64
	replayed             time.Duration
}

func setupBughunt(seed uint64, scale int) (instance, error) {
	w := &bughunt{seed: seed, scale: scale}
	stream := 0
	for _, c := range huntCells {
		n := scaled(c.hunts, scale, 1)
		w.cells = append(w.cells, hunt{protocols.MustByName(c.protocol, true), c.strategy, n, stream})
		stream += n
	}
	// Warm-up: a fifth of a round.
	for _, h := range w.cells {
		for i := 0; i < scaled(h.hunts, 5, 1); i++ {
			sct.Run(h.b.Setup, w.options(h, i))
		}
	}
	return w, nil
}

func (w *bughunt) options(h hunt, i int) sct.Options {
	seed := subseed(w.seed, h.stream+i)
	var s sct.Strategy
	switch h.strategy {
	case "random":
		s = sct.NewRandom(seed)
	case "pct":
		s = sct.NewPCT(seed, 3, h.b.MaxSteps)
	case "dfs":
		s = sct.NewDFS()
	case "dpor+cache":
		s = sct.NewDPOR()
	}
	o := sctOptions(h.b, s, huntBudget)
	o.StopOnFirstBug = true
	o.StateCache = h.strategy == "dpor+cache"
	return o
}

func (w *bughunt) round(tr *tracer, rr *roundResult) error {
	dfsFound := make(map[string]bool)
	for _, h := range w.cells {
		c := cell{name: h.b.Name + "." + h.strategy, ops: int64(h.hunts)}
		var schedules int64
		start := time.Now()
		for i := 0; i < h.hunts; i++ {
			opts := w.options(h, i)
			var rep sct.Report
			tr.do("sct.Run."+h.strategy, func() { rep = sct.Run(h.b.Setup, opts) })
			c.steps += rep.TotalSchedulingPoints
			schedules += int64(rep.Iterations + rep.PrunedIterations)
			if !rep.BugFound() {
				c.failed++
				continue
			}
			replayStart := time.Now()
			var err error
			tr.do("sct.ReplayTrace", func() { err = replays(h.b, &rep) })
			if err != nil {
				return fmt.Errorf("bughunt: %s: %w", c.name, err)
			}
			if tr != nil {
				w.schedules = append(w.schedules, float64(rep.Iterations+rep.PrunedIterations))
				w.elapsedMS = append(w.elapsedMS, float64(rep.Elapsed.Microseconds())/1e3)
				w.replayed += time.Since(replayStart)
			}
		}
		c.wall = time.Since(start)
		switch h.strategy {
		case "dfs":
			dfsFound[h.b.Name] = c.failed == 0
		case "dpor+cache":
			if dfsFound[h.b.Name] && c.failed > 0 {
				return fmt.Errorf("bughunt: dpor+cache misses the %s bug that equal-budget dfs finds", h.b.ID())
			}
		}
		rr.add(c)
		rr.count(c.name+".schedules", schedules)
	}
	return nil
}

// replays re-executes the hunt's bug trace and requires the same bug, on
// the same machine, through a byte-identical trace.
func replays(b protocols.Benchmark, rep *sct.Report) error {
	res := sct.ReplayTrace(b.Setup, rep.FirstBugTrace, testConfig(b))
	if res.Bug == nil {
		return fmt.Errorf("replay of %v found no bug", rep.FirstBug)
	}
	if res.Bug.Kind != rep.FirstBug.Kind || res.Bug.Machine != rep.FirstBug.Machine {
		return fmt.Errorf("replay found %v, the hunt %v", res.Bug, rep.FirstBug)
	}
	var want, got bytes.Buffer
	if err := rep.FirstBugTrace.Encode(&want); err != nil {
		return err
	}
	if err := res.Trace.Encode(&got); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("replay of %v took a different trace", rep.FirstBug)
	}
	return nil
}

func (w *bughunt) close() error { return nil }

func (w *bughunt) layers(tr *tracer, rounds []roundResult, out map[string]float64) error {
	out["sct.schedules_to_first_bug_p50"] = quantile(w.schedules, 0.5)
	out["sct.schedules_to_first_bug_p90"] = quantile(w.schedules, 0.9)
	out["sct.time_to_first_bug_ms_p50"] = quantile(w.elapsedMS, 0.5)
	out["sct.time_to_first_bug_ms_p90"] = quantile(w.elapsedMS, 0.9)
	out["sct.replay_us_per_trace"] = float64(w.replayed.Microseconds()) / float64(len(w.schedules))

	// Campaign start-up: a one-schedule campaign per protocol.
	reps := scaled(200, w.scale, 2)
	var starts []float64
	tr.do("probe.campaign_start", func() {
		for _, name := range protocols.Names() {
			b, ok := protocols.ByName(name, true)
			if !ok {
				continue
			}
			start := time.Now()
			for i := 0; i < reps; i++ {
				sct.Run(b.Setup, sctOptions(b, sct.NewRandom(uint64(i)), 1))
			}
			starts = append(starts, float64(time.Since(start).Microseconds())/float64(reps))
		}
	})
	out["sct.campaign_start_us"] = quantile(starts, 0.5)
	return nil
}

package main

import (
	"fmt"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// table2_random: the paper's #Sch/sec column. Every buggy Table 2 protocol
// under the random scheduler, keep-going, one worker. The per-protocol
// schedule counts are sized so each protocol takes about the same time in
// a round (German runs ~1k schedules/s against its 3 000-step bound, Chord
// ~30k/s; equal counts would make German most of the round).
var table2RandomCounts = []struct {
	protocol  string
	schedules int
}{
	{"BoundedAsync", 1000},
	{"German", 80},
	{"BasicPaxos", 1000},
	{"TwoPhaseCommit", 700},
	{"Chord", 2000},
	{"MultiPaxos", 600},
	{"Raft", 250},
	{"ChainReplication", 600},
}

type table2Random struct {
	seed  uint64
	scale int
	cells []table2Cell
}

type table2Cell struct {
	b         protocols.Benchmark
	schedules int
}

func setupTable2Random(seed uint64, scale int) (instance, error) {
	w := &table2Random{seed: seed, scale: scale}
	for _, c := range table2RandomCounts {
		w.cells = append(w.cells, table2Cell{protocols.MustByName(c.protocol, true), scaled(c.schedules, scale, 4)})
	}
	// Warm-up: a fifth of a round, so the first timed round does not pay
	// first-use costs (type registration paths, heap growth).
	for i, c := range w.cells {
		sct.Run(c.b.Setup, sctOptions(c.b, sct.NewRandom(subseed(seed, i)), scaled(c.schedules, 5, 2)))
	}
	return w, nil
}

func (w *table2Random) round(tr *tracer, rr *roundResult) error {
	for i, c := range w.cells {
		opts := sctOptions(c.b, sct.NewRandom(subseed(w.seed, i)), c.schedules)
		var rep sct.Report
		start := time.Now()
		tr.do("sct.Run", func() { rep = sct.Run(c.b.Setup, opts) })
		wall := time.Since(start)
		failed := int64(c.schedules - rep.Iterations)
		if rep.Interrupted {
			return fmt.Errorf("table2_random: %s interrupted", c.b.ID())
		}
		rr.add(cell{name: c.b.Name, ops: int64(c.schedules), failed: failed, steps: rep.TotalSchedulingPoints, wall: wall})
		rr.count(c.b.Name+".buggy", int64(rep.BuggyIterations))
		rr.count(c.b.Name+".distinct", int64(rep.DistinctSchedules))
	}
	return nil
}

func (w *table2Random) close() error { return nil }

// probeReps is how many times the sides of an ablation alternate; each
// side reports its fastest run.
const probeReps = 5

// layers decomposes a scheduling point by ablation through public options:
// an empty-handler ring under the null strategy is the bare handoff; the
// protocols under the null strategy add handlers and bookkeeping; each
// strategy against the replay of its own schedules is its Decide; sct.Run
// against the bare harness loop is the engine.
func (w *table2Random) layers(tr *tracer, rounds []roundResult, out map[string]float64) error {
	scale := w.scale
	null := always(nullStrategy{})

	tr.do("probe.handoff", func() {
		ring := interleave(probeReps, func() harnessRun {
			return loopHarness(relayRing(4, 500), psharp.TestConfig{}, scaled(400, scale, 4), null)
		})
		out["psharp.handoff_ns_per_sp"] = ring[0].nsPerPoint()
	})

	tr.do("probe.step", func() {
		var wall time.Duration
		var points int64
		for _, c := range w.cells {
			r := interleave(3, func() harnessRun {
				return loopHarness(c.b.Setup, testConfig(c.b), scaled(c.schedules, 2, 4), null)
			})
			wall, points = wall+r[0].wall, points+r[0].points
		}
		out["psharp.step_ns_per_sp"] = float64(wall.Nanoseconds()) / float64(points)
	})

	tpc := protocols.MustByName("TwoPhaseCommit", true)
	iters := scaled(1000, scale, 10)
	seed := subseed(w.seed, 100)
	cfg := testConfig(tpc)
	random := func() sct.Strategy { return sct.NewRandom(seed) }

	// Pooled harness against one-shot RunTest, and sct.Run against the bare
	// harness loop, on identical schedules.
	var err error
	tr.do("probe.pooled_oneshot_engine", func() {
		runs := interleave(probeReps,
			func() harnessRun { return loopHarness(tpc.Setup, cfg, iters, prepared(random())) },
			func() harnessRun {
				s, c := random(), cfg
				c.Strategy = s
				run := harnessRun{iters: iters}
				start := time.Now()
				for i := 0; i < iters; i++ {
					s.PrepareIteration(i)
					run.points += int64(psharp.RunTest(tpc.Setup, c).SchedulingPoints)
				}
				run.wall = time.Since(start)
				return run
			},
			func() harnessRun {
				rep := sct.Run(tpc.Setup, sctOptions(tpc, random(), iters))
				return harnessRun{iters: iters, wall: rep.Elapsed, points: rep.TotalSchedulingPoints}
			})
		pooled, oneshot, engine := runs[0], runs[1], runs[2]
		if oneshot.points != pooled.points || engine.points != pooled.points {
			err = fmt.Errorf("table2_random: pooled, one-shot and engine runs made %d, %d and %d scheduling points on the same seeds", pooled.points, oneshot.points, engine.points)
		}
		out["psharp.pooled_iter_us"] = pooled.nsPerIter() / 1e3
		out["psharp.oneshot_iter_us"] = oneshot.nsPerIter() / 1e3
		out["sct.engine_ns_per_iter"] = engine.nsPerIter() - pooled.nsPerIter()
	})
	if err != nil {
		return err
	}

	for _, s := range []struct {
		name  string
		fresh func() sct.Strategy
	}{
		{"random", random},
		{"pct", func() sct.Strategy { return sct.NewPCT(seed, 3, tpc.MaxSteps) }},
		{"delay", func() sct.Strategy { return sct.NewDelayBounding(seed, 3, tpc.MaxSteps) }},
	} {
		tr.do("probe.decide."+s.name, func() {
			out["sct.decide_ns_per_sp."+s.name], err = decideCost(tpc, iters, probeReps, s.fresh)
		})
		if err != nil {
			return err
		}
	}

	// The Table 2 CHESS baselines: scheduling at every synchronising
	// operation, then the race detector on top of it.
	tr.do("probe.chess", func() {
		c := cfg
		c.ChessLike = true
		rd := c
		rd.RaceDetect = true
		runs := interleave(probeReps,
			func() harnessRun { return loopHarness(tpc.Setup, c, iters/2, prepared(random())) },
			func() harnessRun { return loopHarness(tpc.Setup, rd, iters/2, prepared(random())) })
		if runs[0].hash != runs[1].hash {
			err = fmt.Errorf("table2_random: race-detector ablation: schedules differ with the detector on")
		}
		out["psharp.chess_ns_per_sp"] = runs[0].nsPerPoint()
		out["vclock.racedetect_ns_per_sp"] = runs[1].nsPerPoint() - runs[0].nsPerPoint()
	})
	if err != nil {
		return err
	}

	tr.do("probe.trace_codec", func() {
		out["psharp.trace_codec_ns_per_decision"], err = traceCodecCost(tpc, seed, scaled(400, scale, 4))
	})
	return err
}

// relayRing is the empty-handler program: n machines pass one token around
// until its hop budget is spent (the wire and hop events are prod_runtime's;
// here the one token is reused, not reallocated). Handlers do nothing but
// the send, so under the null strategy a scheduling point costs the
// controller's handoff.
func relayRing(n, hops int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Relay", func() psharp.Machine {
			var next psharp.MachineID
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Run").
					OnEventDo(&wire{}, func(_ *psharp.Context, ev psharp.Event) { next = ev.(*wire).Next }).
					OnEventDo(&hop{}, func(ctx *psharp.Context, ev psharp.Event) {
						t := ev.(*hop)
						if t.Left == 0 {
							return
						}
						t.Left--
						ctx.Send(next, t)
					})
			})
		})
		ids := make([]psharp.MachineID, n)
		for i := range ids {
			ids[i] = r.MustCreate("Relay", nil)
		}
		for i, id := range ids {
			mustSend(r, id, &wire{Next: ids[(i+1)%n]})
		}
		mustSend(r, ids[0], &hop{Left: hops})
	}
}

func mustSend(r *psharp.Runtime, to psharp.MachineID, ev psharp.Event) {
	if err := r.SendEvent(to, ev); err != nil {
		panic(err)
	}
}

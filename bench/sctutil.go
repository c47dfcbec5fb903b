package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// nullStrategy always picks the first enabled machine, false and 0: the
// cheapest answer to every query. Runs under it pay the controller's
// handoff and the handlers, and next to nothing for the decision.
type nullStrategy struct{}

func (nullStrategy) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	return enabled[0]
}
func (nullStrategy) NextBool() bool  { return false }
func (nullStrategy) NextInt(int) int { return 0 }

// recorder logs every answer of an inner strategy (machine picks as
// indices into the enabled set), so that the same schedules can be driven
// again by a replayer whose Decide is an array read. Timing a strategy
// against the replay of its own schedules isolates what its decisions
// cost: both runs execute identical handlers.
type recorder struct {
	inner psharp.Strategy
	log   []int32
}

func (r *recorder) NextMachine(cur psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	id := r.inner.NextMachine(cur, enabled)
	for i, e := range enabled {
		if e == id {
			r.log = append(r.log, int32(i))
			break
		}
	}
	return id
}

func (r *recorder) NextBool() bool {
	v := r.inner.NextBool()
	if v {
		r.log = append(r.log, 1)
	} else {
		r.log = append(r.log, 0)
	}
	return v
}

func (r *recorder) NextInt(n int) int {
	v := r.inner.NextInt(n)
	r.log = append(r.log, int32(v))
	return v
}

// ObserveStep forwards step footprints to strategies that need them (DPOR).
func (r *recorder) ObserveStep(op psharp.StepOp) {
	if o, ok := r.inner.(psharp.StepObserver); ok {
		o.ObserveStep(op)
	}
}

type replayer struct {
	log []int32
	pos int
}

func (r *replayer) next() int32 { v := r.log[r.pos]; r.pos++; return v }
func (r *replayer) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	return enabled[r.next()]
}
func (r *replayer) NextBool() bool  { return r.next() == 1 }
func (r *replayer) NextInt(int) int { return int(r.next()) }

// harnessRun is what a loop over one pooled TestHarness measured.
type harnessRun struct {
	wall   time.Duration
	iters  int
	points int64  // scheduling points
	hash   uint64 // over every decision of every iteration, in order
}

func (h harnessRun) elapsed() time.Duration { return h.wall }
func (h harnessRun) nsPerPoint() float64    { return float64(h.wall.Nanoseconds()) / float64(h.points) }
func (h harnessRun) nsPerIter() float64     { return float64(h.wall.Nanoseconds()) / float64(h.iters) }

// loopHarness runs iters iterations of setup through one pooled harness.
// next returns iteration i's strategy (for an sct strategy, after its
// PrepareIteration). The decision hash costs about two nanoseconds per
// decision on both sides of every ablation pair.
func loopHarness(setup func(*psharp.Runtime), cfg psharp.TestConfig, iters int, next func(i int) psharp.Strategy) harnessRun {
	run := harnessRun{iters: iters, hash: 14695981039346656037}
	start := time.Now()
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	for i := 0; i < iters; i++ {
		cfg.Strategy = next(i)
		res := h.Run(cfg)
		run.points += int64(res.SchedulingPoints)
		run.hash = hashDecisions(run.hash, res.Trace)
	}
	run.wall = time.Since(start)
	return run
}

func hashDecisions(h uint64, t *psharp.Trace) uint64 {
	for _, d := range t.Decisions {
		v := uint64(d.Kind) ^ d.Machine.Seq<<8 ^ uint64(d.Int)<<8 ^ uint64(d.Fault.Kind)<<4 ^ d.Fault.Machine.Seq<<16
		if d.Bool {
			v ^= 1 << 3
		}
		h = (h ^ v) * 1099511628211
	}
	return (h ^ uint64(len(t.Decisions))) * 1099511628211
}

// prepared adapts an sct strategy to loopHarness.
func prepared(s sct.Strategy) func(int) psharp.Strategy {
	return func(i int) psharp.Strategy {
		if !s.PrepareIteration(i) {
			panic(fmt.Sprintf("bench: strategy exhausted at iteration %d", i))
		}
		return s
	}
}

func always(s psharp.Strategy) func(int) psharp.Strategy {
	return func(int) psharp.Strategy { return s }
}

func testConfig(b protocols.Benchmark) psharp.TestConfig {
	return psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
}

func sctOptions(b protocols.Benchmark, s sct.Strategy, iterations int) sct.Options {
	return sct.Options{Strategy: s, Iterations: iterations, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
}

// decideCost measures what strategy fresh() spends per scheduling point on
// program b: it records the strategy's schedules, then times the strategy
// itself and an array-read replay of the same schedules, and checks that
// both executed identical traces.
func decideCost(b protocols.Benchmark, iters, reps int, fresh func() sct.Strategy) (nsPerPoint float64, err error) {
	cfg := testConfig(b)
	logs := make([][]int32, iters)
	func() {
		h := psharp.NewTestHarness(b.Setup)
		defer h.Close()
		s := fresh()
		rec := &recorder{inner: s}
		cfg := cfg
		cfg.Strategy = rec
		for i := range logs {
			s.PrepareIteration(i)
			rec.log = nil
			h.Run(cfg)
			logs[i] = rec.log
		}
	}()
	rp := &replayer{}
	runs := interleave(reps,
		func() harnessRun { return loopHarness(b.Setup, cfg, iters, prepared(fresh())) },
		func() harnessRun {
			return loopHarness(b.Setup, cfg, iters, func(i int) psharp.Strategy {
				rp.log, rp.pos = logs[i], 0
				return rp
			})
		})
	direct, replay := runs[0], runs[1]
	if direct.hash != replay.hash || direct.points != replay.points {
		return 0, fmt.Errorf("decide ablation on %s: replayed schedules differ (%d vs %d points)", b.ID(), direct.points, replay.points)
	}
	return direct.nsPerPoint() - replay.nsPerPoint(), nil
}

// traceCodecCost encodes and decodes the traces of iters random schedules
// of b and returns the round trip's cost per decision.
func traceCodecCost(b protocols.Benchmark, seed uint64, iters int) (float64, error) {
	h := psharp.NewTestHarness(b.Setup)
	defer h.Close()
	cfg := testConfig(b)
	next := prepared(sct.NewRandom(seed))
	traces := make([]*psharp.Trace, iters)
	decisions := 0
	for i := range traces {
		cfg.Strategy = next(i)
		traces[i] = h.Run(cfg).Trace.Clone()
		decisions += traces[i].Len()
	}
	var buf bytes.Buffer
	start := time.Now()
	for _, t := range traces {
		buf.Reset()
		if err := t.Encode(&buf); err != nil {
			return 0, err
		}
		back, err := psharp.DecodeTrace(&buf)
		if err != nil {
			return 0, err
		}
		if back.Len() != t.Len() {
			return 0, fmt.Errorf("trace codec: %d decisions decoded of %d", back.Len(), t.Len())
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(decisions), nil
}

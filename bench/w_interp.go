package main

import (
	"fmt"
	"time"

	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/interp"
	"github.com/psharp-go/psharp/lang"
)

// psl_interp: the second runtime. The 13 non-racy .psl programs, each
// parsed and compiled once per round and then run to quiescence under
// interpSeeds consecutive scheduler seeds by the bytecode engine. It
// bypasses psharp and sct entirely; when interp is folded into the one
// controller this workload says what that cost. (A warm run allocates
// nothing, so the round's allocations are those of parsing and compiling:
// allocs_per_op is small here, and not zero.)
const interpSeeds = 30000

type pslInterp struct {
	seed  uint64
	scale int
	progs []pslProgram
}

type pslProgram struct {
	name string
	prog *lang.Program
	main string
}

// loadPSL parses and checks a corpus program; its first run compiles it.
func loadPSL(name string, racy bool) (pslProgram, error) {
	prog, err := benchsrc.Source(name, racy)
	if err != nil {
		return pslProgram{}, err
	}
	return pslProgram{name, prog, prog.Machines[0].Name}, nil
}

func setupPSLInterp(seed uint64, scale int) (instance, error) {
	w := &pslInterp{seed: seed, scale: scale}
	for _, b := range benchsrc.All() {
		p, err := loadPSL(b.Name, false)
		if err != nil {
			return nil, err
		}
		// Sampled seeds check the bytecode engine against the reference
		// tree-walker.
		for i := 0; i < 4; i++ {
			s := subseed(seed, i)
			vm := interp.Run(p.prog, p.main, interp.Options{Seed: s})
			walk := interp.Run(p.prog, p.main, interp.Options{Seed: s, Engine: interp.EngineWalk})
			if vm.Err != nil || walk.Err != nil {
				return nil, fmt.Errorf("psl_interp: %s seed %d: %v / %v", b.Name, s, vm.Err, walk.Err)
			}
			if vm.Steps != walk.Steps || vm.Quiescent != walk.Quiescent {
				return nil, fmt.Errorf("psl_interp: %s seed %d: bytecode ran %d steps (quiescent %v), the walker %d (%v)",
					b.Name, s, vm.Steps, vm.Quiescent, walk.Steps, walk.Quiescent)
			}
		}
		w.progs = append(w.progs, p)
	}
	for _, p := range w.progs { // warm-up: a fifth of a round
		runSeeds(p, interp.Options{}, w.seed, scaled(interpSeeds, 5*scale, 2))
	}
	return w, nil
}

// runSeeds runs p under n consecutive seeds and returns the steps
// executed, the runs that ended in an error, and the wall time.
func runSeeds(p pslProgram, opts interp.Options, seed uint64, n int) (steps, failed int64, wall time.Duration) {
	start := time.Now()
	for i := 0; i < n; i++ {
		opts.Seed = seed + uint64(i)
		out := interp.Run(p.prog, p.main, opts)
		steps += int64(out.Steps)
		if out.Err != nil {
			failed++
		}
	}
	return steps, failed, time.Since(start)
}

func (w *pslInterp) round(tr *tracer, rr *roundResult) error {
	n := scaled(interpSeeds, w.scale, 4)
	for _, p := range w.progs {
		c := cell{name: p.name, ops: int64(n)}
		start := time.Now()
		var err error
		tr.do("benchsrc.Source", func() { p, err = loadPSL(p.name, false) })
		if err != nil {
			return err
		}
		tr.do("interp.Run", func() { c.steps, c.failed, _ = runSeeds(p, interp.Options{}, w.seed, n) })
		c.wall = time.Since(start)
		rr.add(c)
	}
	return nil
}

func (w *pslInterp) close() error { return nil }

func (w *pslInterp) layers(tr *tracer, rounds []roundResult, out map[string]float64) error {
	var wall time.Duration
	var steps int64
	for _, rr := range rounds {
		_, _, s := rr.ops()
		wall, steps = wall+rr.wall(), steps+s
	}
	out["interp.vm_ns_per_step"] = float64(wall.Nanoseconds()) / float64(steps)

	n := scaled(2000, w.scale, 4)
	var walkWall time.Duration
	var walkSteps int64
	tr.do("probe.walk", func() {
		for _, p := range w.progs {
			s, _, d := runSeeds(p, interp.Options{Engine: interp.EngineWalk}, w.seed, n)
			walkWall, walkSteps = walkWall+d, walkSteps+s
		}
	})
	out["interp.walk_ns_per_step"] = float64(walkWall.Nanoseconds()) / float64(walkSteps)

	// Compilation: the first run of a freshly parsed program against a
	// warm one.
	var compile time.Duration
	var err error
	tr.do("probe.compile", func() {
		for _, b := range benchsrc.All() {
			var p pslProgram
			if p, err = loadPSL(b.Name, false); err != nil {
				return
			}
			_, _, first := runSeeds(p, interp.Options{}, w.seed, 1)
			_, _, warm := runSeeds(p, interp.Options{}, w.seed, 1)
			compile += first - warm
		}
	})
	if err != nil {
		return err
	}
	out["interp.compile_us_per_program"] = float64(compile.Microseconds()) / float64(len(w.progs))

	// The race detector, on the racy variants it exists for.
	var off, on time.Duration
	var rdSteps int64
	tr.do("probe.racedetect", func() {
		for _, b := range benchsrc.All() {
			if !b.HasRacy {
				continue
			}
			var p pslProgram
			if p, err = loadPSL(b.Name, true); err != nil {
				return
			}
			runSeeds(p, interp.Options{}, w.seed, 1)
			s, _, d := runSeeds(p, interp.Options{}, w.seed, n)
			rdSteps, off = rdSteps+s, off+d
			_, _, d = runSeeds(p, interp.Options{RaceDetect: true}, w.seed, n)
			on += d
		}
	})
	if err != nil {
		return err
	}
	out["interp.racedetect_ns_per_step"] = float64((on - off).Nanoseconds()) / float64(rdSteps)

	tr.do("probe.allocs", func() {
		before, _ := allocated()
		runs := 0
		for _, p := range w.progs {
			runSeeds(p, interp.Options{}, w.seed, n)
			runs += n
		}
		after, _ := allocated()
		out["interp.allocs_per_run"] = float64(after-before) / float64(runs)
	})
	return nil
}

package psharp_test

// Tests for the process-wide table of compiled static schemas: a static
// machine or monitor type compiles once per process per (name, probe value),
// across harnesses, campaigns, replays and production runtimes; variants of
// one type whose ConfigureType reads the probe never share a schema; and
// what cannot be compared or compiled is never kept.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

type evFlip struct{ psharp.EventBase }

// flipMachine is a static machine whose schema is a function of its probe:
// the buggy variant fails on evFlip, the correct one ignores it.
type flipMachine struct {
	psharp.StaticBase
	buggy bool
}

func (probe *flipMachine) ConfigureType(sc *psharp.Schema) {
	st := sc.Start("Run")
	if probe.buggy {
		st.OnEventDoM(&evFlip{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			ctx.Assert(false, "flipped")
		})
	} else {
		st.Ignore(&evFlip{})
	}
}

func flipSetup(name string, buggy bool) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister(name, func() psharp.Machine { return &flipMachine{buggy: buggy} })
		if err := r.SendEvent(r.MustCreate(name, nil), &evFlip{}); err != nil {
			panic(err)
		}
	}
}

// typeNames makes each use of a test type a name no earlier test (or earlier
// -count round) has compiled, so compile counts start from a cold table.
var typeNames atomic.Int64

func freshTypeName(prefix string) string {
	return fmt.Sprintf("%s%d", prefix, typeNames.Add(1))
}

// TestStaticSchemasCompileOncePerProcess: across harnesses, campaigns and
// replays, a static type compiles once per distinct probe value and never
// again — and two probe values under one name are two schemas. With the
// probe's value left out of the key, the second variant would run on the
// first one's schema and the table would hold one entry, not two.
func TestStaticSchemasCompileOncePerProcess(t *testing.T) {
	name := freshTypeName("Flip")
	before := psharp.TypeSchemaCompiles()
	for round := 0; round < 3; round++ {
		for _, buggy := range []bool{round%2 == 0, round%2 != 0} {
			setup := flipSetup(name, buggy)
			h := psharp.NewTestHarness(setup)
			for i := 0; i < 4; i++ {
				res := h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(uint64(i)))})
				if (res.Bug != nil) != buggy {
					t.Fatalf("round %d, buggy=%v: harness iteration %d found %v", round, buggy, i, res.Bug)
				}
			}
			h.Close()
			rep := sct.Run(setup, sct.Options{Strategy: sct.NewRandom(1), Iterations: 8})
			if rep.BugFound() != buggy {
				t.Fatalf("round %d, buggy=%v: campaign found %v", round, buggy, rep.FirstBug)
			}
			if buggy {
				if res := sct.ReplayTrace(setup, rep.FirstBugTrace, psharp.TestConfig{}); res.Bug == nil {
					t.Fatalf("round %d: replay lost the bug", round)
				}
			}
		}
	}
	if got := psharp.TypeSchemaCompiles() - before; got != 2 {
		t.Errorf("%s compiled %d times over 6 harnesses, 6 campaigns and 3 replays, want 2 (once per probe value)", name, got)
	}
	if got := psharp.CachedTypeSchemas(name); got != 2 {
		t.Errorf("the table keeps %d schemas for %s, want 2", got, name)
	}

	// A protocol whose coordinator reads the buggy flag: two coordinator
	// schemas, one of every other type, and none compiled after the first
	// harness of each variant.
	for _, buggy := range []bool{true, false} {
		psharp.RunTest(protocols.MustByName("TwoPhaseCommit", buggy).SetupMonitored(),
			psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1))})
	}
	before = psharp.TypeSchemaCompiles()
	for _, buggy := range []bool{true, false, true, false} {
		b := protocols.MustByName("TwoPhaseCommit", buggy)
		h := psharp.NewTestHarness(b.SetupMonitored())
		h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1)), MaxSteps: b.MaxSteps})
		if got := h.SchemaCompiles(); got != 0 {
			t.Errorf("TwoPhaseCommit(buggy=%v): a new harness compiled %d schemas, want 0", buggy, got)
		}
		h.Close()
	}
	if got := psharp.TypeSchemaCompiles() - before; got != 0 {
		t.Errorf("TwoPhaseCommit harnesses compiled %d schemas once both variants had run, want 0", got)
	}
	for name, want := range map[string]int{"TPCCoordinator": 2, "TPCParticipant": 1, "TPCChecker": 1, "Atomicity": 1} {
		if got := psharp.CachedTypeSchemas(name); got != want {
			t.Errorf("the table keeps %d schemas for %s, want %d", got, name, want)
		}
	}
}

// TestStaticSchemasShareAcrossRuntimes covers the production runtime: the
// first Runtime to register a static type compiles it, every later one —
// and every create on any of them — reuses that schema.
func TestStaticSchemasShareAcrossRuntimes(t *testing.T) {
	name := freshTypeName("Spinner")
	for i := 0; i < 3; i++ {
		r := psharp.NewRuntime()
		r.MustRegister(name, func() psharp.Machine { return &flipMachine{} })
		for j := 0; j < 8; j++ {
			mustSend(t, r, r.MustCreate(name, nil), &evFlip{})
		}
		if err := r.Wait(); err != nil {
			t.Fatalf("runtime %d: Wait: %v", i, err)
		}
		want := 0
		if i == 0 {
			want = 1
		}
		if got := r.SchemaCompiles(); got != want {
			t.Errorf("runtime %d: %d schema compiles for 8 creates of one static type, want %d", i, got, want)
		}
	}
}

// funcProbe holds a func, which no two probes share a value of.
type funcProbe struct {
	psharp.StaticBase
	hook func()
}

func (*funcProbe) ConfigureType(sc *psharp.Schema) { sc.Start("Idle") }

// TestTypeSchemaUncomparableProbesCompilePerRuntime: a probe with a non-nil
// func field can be equal to nothing, so its type compiles once per Runtime —
// as every static type did before the process-wide table — and the table
// keeps none of them. A probe whose func field is nil compares like any other
// value.
func TestTypeSchemaUncomparableProbesCompilePerRuntime(t *testing.T) {
	withFunc, nilFunc := freshTypeName("Hooked"), freshTypeName("Unhooked")
	for i := 0; i < 3; i++ {
		r := psharp.NewRuntime()
		r.MustRegister(withFunc, func() psharp.Machine { return &funcProbe{hook: func() {}} })
		r.MustRegister(nilFunc, func() psharp.Machine { return &funcProbe{} })
		want := 1
		if i == 0 {
			want = 2
		}
		if got := r.SchemaCompiles(); got != want {
			t.Errorf("runtime %d: %d schema compiles, want %d", i, got, want)
		}
	}
	for name, want := range map[string]int{withFunc: 0, nilFunc: 1} {
		if got := psharp.CachedTypeSchemas(name); got != want {
			t.Errorf("the table keeps %d schemas for %s, want %d", got, name, want)
		}
	}
}

// TestTypeSchemaTableIsBounded: a type whose probes differ on every Runtime
// stops entering the table at MaxProbeValues and keeps compiling.
func TestTypeSchemaTableIsBounded(t *testing.T) {
	name := freshTypeName("Counted")
	type counted struct {
		flipMachine
		n int
	}
	for i := 0; i < psharp.MaxProbeValues+4; i++ {
		r := psharp.NewRuntime()
		r.MustRegister(name, func() psharp.Machine { return &counted{n: i} })
		if got := r.SchemaCompiles(); got != 1 {
			t.Fatalf("runtime %d: %d schema compiles for a new probe value, want 1", i, got)
		}
	}
	if got := psharp.CachedTypeSchemas(name); got != psharp.MaxProbeValues {
		t.Errorf("the table keeps %d schemas for %s, want %d", got, name, psharp.MaxProbeValues)
	}
}

// TestTypeSchemaVariantsAlternate is the soundness check of the table on
// the five protocols whose ConfigureType reads the buggy flag: buggy and
// correct variants alternate, one harness after another in one process.
// Every correct campaign is clean over its whole budget, and every buggy one
// finds its bug, which replays.
func TestTypeSchemaVariantsAlternate(t *testing.T) {
	type hunt struct {
		setup func(*psharp.Runtime)
		opts  sct.Options
	}
	plan := func(name string, buggy bool) hunt {
		b := protocols.MustByName(name, buggy)
		h := hunt{setup: b.Setup, opts: sct.Options{
			Strategy: sct.NewRandom(1), MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug,
		}}
		switch name {
		case "TwoPhaseCommitFT":
			h.setup = b.SetupMonitored()
			h.opts.Faults = sct.FaultOptions{Budget: 2, Seed: 1, Horizon: 64, Immune: b.FaultImmune, Restart: true}
		case "FairResponder":
			h.setup = b.SetupMonitored()
		}
		h.opts.Iterations, h.opts.StopOnFirstBug = 100, true
		if buggy {
			h.opts.Iterations = 3000
		}
		return h
	}
	for round := 0; round < 2; round++ {
		for _, name := range []string{"Chord", "TwoPhaseCommit", "TwoPhaseCommitFT", "BoundedAsync", "FairResponder"} {
			for _, buggy := range []bool{round == 0, round != 0} {
				h := plan(name, buggy)
				rep := sct.Run(h.setup, h.opts)
				if !buggy {
					if rep.BugFound() {
						t.Errorf("round %d: correct %s found %v at iteration %d", round, name, rep.FirstBug, rep.FirstBugIteration)
					}
					continue
				}
				if !rep.BugFound() {
					t.Errorf("round %d: buggy %s found no bug in %d schedules", round, name, rep.Iterations)
					continue
				}
				res := sct.ReplayTrace(h.setup, rep.FirstBugTrace, psharp.TestConfig{
					MaxSteps: h.opts.MaxSteps, LivelockAsBug: h.opts.LivelockAsBug,
				})
				if res.Bug == nil || res.Bug.Kind != rep.FirstBug.Kind || res.Bug.Message != rep.FirstBug.Message {
					t.Errorf("round %d: buggy %s: replay found %v, the campaign %v", round, name, res.Bug, rep.FirstBug)
				}
			}
		}
	}
}

// TestTypeSchemaConcurrentRegistration races the table's cold path: two
// 4-worker campaigns, one per variant, register the same fresh type on all
// their harnesses at once, while production Runtimes register it on other
// goroutines. Each variant still runs on its own schema everywhere, and the
// table ends with one entry per variant. Run under -race.
func TestTypeSchemaConcurrentRegistration(t *testing.T) {
	name := freshTypeName("Raced")
	var wg sync.WaitGroup
	reports := make([]sct.ParallelReport, 2)
	for v := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[v] = sct.RunParallel(flipSetup(name, v == 1), sct.ParallelOptions{
				Options: sct.Options{Strategy: sct.NewRandom(uint64(v)), Iterations: 64},
				Workers: 4,
			})
		}()
	}
	failed := make([]error, 8)
	for g := range failed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := psharp.NewRuntime()
			flipSetup(name, g%2 == 1)(r)
			failed[g] = r.Wait()
		}()
	}
	wg.Wait()
	for v, rep := range reports {
		want := 0 // the buggy variant fails every schedule, the correct one none
		if v == 1 {
			want = rep.Iterations
		}
		if rep.Iterations == 0 || rep.BuggyIterations != want {
			t.Errorf("buggy=%v: %d of %d schedules buggy, want %d", v == 1, rep.BuggyIterations, rep.Iterations, want)
		}
	}
	for g, err := range failed {
		if buggy := g%2 == 1; (err != nil) != buggy {
			t.Errorf("production runtime %d (buggy=%v): Wait = %v", g, buggy, err)
		}
	}
	if got := psharp.CachedTypeSchemas(name); got != 2 {
		t.Errorf("the table keeps %d schemas for %s, want 2", got, name)
	}
}

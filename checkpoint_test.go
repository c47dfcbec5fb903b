package psharp_test

// Lifecycle tests for the quiescent checkpoints (checkpoint.go). The
// attempt-for-attempt equivalence with a search that runs every attempt from
// setup is TestStateCacheReplaySkipEquivalence's; these are the corners. The
// names start with TestCheckpoint so CI's "DPOR + state cache suite" step
// runs them under the race detector.

import (
	"fmt"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// replaysFromSetup holds an iteration's result to the stateless tester: the
// trace, executed from setup by a one-shot replay, must come out byte for
// byte, with the same bug after the same number of scheduling points.
func replaysFromSetup(t *testing.T, what string, setup func(*psharp.Runtime), res psharp.IterationResult, cfg psharp.TestConfig) {
	t.Helper()
	cfg.StateCache, cfg.Interrupt = nil, nil
	again := sct.ReplayTrace(setup, res.Trace, cfg)
	bug := func(b *psharp.Bug) string {
		if b == nil {
			return "no bug"
		}
		return b.Error()
	}
	if got, want := encodeTrace(t, again.Trace), encodeTrace(t, res.Trace); got != want ||
		bug(again.Bug) != bug(res.Bug) || again.SchedulingPoints != res.SchedulingPoints || again.Machines != res.Machines {
		t.Fatalf("%s: from setup the trace gives %s after %d points with %d machines (trace equal: %v); the iteration reported %s after %d with %d",
			what, bug(again.Bug), again.SchedulingPoints, again.Machines, got == want, bug(res.Bug), res.SchedulingPoints, res.Machines)
	}
}

// A program with a machine that halts early and one that is created late,
// around a stretch of request/response rounds whose schedules have quiescent
// points on either side of both.

type ckGo struct {
	psharp.EventBase
	Round int
}

type ckAck struct {
	psharp.EventBase
	From  psharp.MachineID
	Round int
	Trail []int // grows by a round per ack: a payload worth copying
}

type ckRoot struct {
	psharp.StaticBase
	rounds      int
	early, peer psharp.MachineID
	late        psharp.MachineID
	seen        map[int]bool
	trail       []int
}

func (*ckRoot) ConfigureType(sc *psharp.Schema) {
	sc.Start("Run").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			r := m.(*ckRoot)
			r.seen = map[int]bool{}
			r.early = ctx.CreateMachine("Early", nil)
			r.peer = ctx.CreateMachine("Peer", nil)
			ctx.Send(r.early, &ckGo{})
			ctx.Send(r.peer, &ckGo{Round: 1})
		}).
		OnEventDoM(&ckAck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			r, ack := m.(*ckRoot), ev.(*ckAck)
			if ack.From == r.early {
				return
			}
			ctx.Assert(!r.seen[ack.Round], "round %d acknowledged twice", ack.Round)
			r.seen[ack.Round] = true
			r.trail = ack.Trail
			switch {
			case ack.Round < r.rounds:
				ctx.Send(ack.From, &ckGo{Round: ack.Round + 1})
			case r.late.IsNil():
				r.late = ctx.CreateMachine("Late", &ckGo{Round: ack.Round + ctx.RandomInt(2)})
			default:
				ctx.Assert(len(r.trail) > 0, "Late acknowledged with an empty trail")
				ctx.Send(r.early, &ckGo{Round: -1}) // dropped: Early halted long ago
			}
		})
}

type ckEarly struct{ psharp.StaticBase }

func (*ckEarly) ConfigureType(sc *psharp.Schema) {
	sc.Start("Once").OnEventDoM(&ckGo{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		ctx.Send(psharp.MachineID{Type: "Root", Seq: 1}, &ckAck{From: ctx.ID()})
		ctx.Halt()
	})
}

// ckPeer answers requests. With fuse set (Late) it first flips a coin that
// fails the program, then draws a few numbers: decisions taken with no
// scheduling point between them, so that the search spends its next attempts
// backtracking inside this one handler, right behind a quiescent point.
type ckPeer struct {
	psharp.StaticBase
	fuse  bool
	trail []int
}

func (*ckPeer) ConfigureType(sc *psharp.Schema) {
	reply := func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		p, round := m.(*ckPeer), ev.(*ckGo).Round
		if ctx.RandomBool() {
			p.trail = append(p.trail, round)
		}
		ctx.Send(psharp.MachineID{Type: "Root", Seq: 1}, &ckAck{From: ctx.ID(), Round: round, Trail: p.trail})
	}
	sc.Start("Serve").OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		if p := m.(*ckPeer); p.fuse { // Late is created with its one request
			ctx.Assert(!ctx.RandomBool(), "fuse blown")
			p.trail = []int{ctx.RandomInt(3), ctx.RandomInt(3), ctx.RandomInt(2)}
			reply(m, ctx, ev)
		}
	}).OnEventDoM(&ckGo{}, reply)
}

// lifecycleSetup builds the program; extra, if non-nil, registers and creates
// more on top. The runtime the setup ran against comes back through rt.
func lifecycleSetup(rounds int, rt **psharp.Runtime, extra func(*psharp.Runtime)) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		if rt != nil {
			*rt = r
		}
		r.MustRegister("Root", func() psharp.Machine { return &ckRoot{rounds: rounds} })
		r.MustRegister("Early", func() psharp.Machine { return &ckEarly{} })
		r.MustRegister("Peer", func() psharp.Machine { return &ckPeer{} })
		r.MustRegister("Late", func() psharp.Machine { return &ckPeer{fuse: true} })
		r.MustCreate("Root", nil)
		if extra != nil {
			extra(r)
		}
	}
}

// TestCheckpointAroundHaltAndCreate searches the lifecycle program with
// checkpoints and without and wants one campaign; along the way some attempt
// must have started from a checkpoint taken after Early halted and before
// Late was created — it executes one create, not four, and still ends with
// four machines — and every attempt that restored anything must replay from
// setup to the trace it reported.
func TestCheckpointAroundHaltAndCreate(t *testing.T) {
	const attempts = 1500
	b := protocols.Benchmark{Name: "Lifecycle", MaxSteps: 500}
	live, _, restored := search(t, lifecycleSetup(5, nil, nil), b, sct.NewDFS(), attempts, false, searchLive)
	plain, _, _ := search(t, lifecycleSetup(5, nil, nil), b, sct.NewDFS(), attempts, false, searchNoCheckpoints)
	sameAttempts(t, "lifecycle program under dfs", live, plain, nil, nil)
	live, liveCache, _ := search(t, lifecycleSetup(5, nil, nil), b, sct.NewDPOR(), attempts, true, searchLive)
	plain, plainCache, _ := search(t, lifecycleSetup(5, nil, nil), b, sct.NewDPOR(), attempts, true, searchNoCheckpoints)
	sameAttempts(t, "lifecycle program under dpor+cache", live, plain, liveCache, plainCache)
	if restored == 0 {
		t.Fatal("no attempt started from a checkpoint")
	}

	var rt *psharp.Runtime
	setup := lifecycleSetup(5, &rt, nil)
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	dfs := sct.NewDFS()
	cfg := psharp.TestConfig{Strategy: dfs, MaxSteps: b.MaxSteps}
	between, dropped := 0, 0
	for i := 0; i < attempts && dfs.PrepareIteration(i); i++ {
		var before psharp.RuntimeMetricsSnapshot
		if rt != nil {
			before = rt.Metrics()
		}
		res := h.Run(cfg)
		if res.RestoredPoints == 0 {
			continue
		}
		replaysFromSetup(t, fmt.Sprint("attempt ", i), lifecycleSetup(5, nil, nil), res, cfg)
		after := rt.Metrics()
		if res.Machines == 4 && after.Creates-before.Creates == 1 {
			between++
			if after.DroppedSends > before.DroppedSends {
				dropped++ // Early came back halted: a send to it was dropped
			}
		}
	}
	if between == 0 || dropped == 0 {
		t.Fatalf("%d attempts started between Early's halt and Late's creation, %d of them dropped a send to the halted Early; want both", between, dropped)
	}
}

// TestCheckpointFactoriesOutliveTheirSetup pins the rule the TestHarness
// docs state: an attempt that starts from a checkpoint does not run setup, and
// a machine it creates later is built by the factory the last setup that did
// run registered. What that factory captured is that older call's — here a
// number, harmlessly; a pointer to something machines change would be an
// object none of the restored machines hold. Factories must be pure.
func TestCheckpointFactoriesOutliveTheirSetup(t *testing.T) {
	setups, lateFrom := 0, 0
	setup := func(r *psharp.Runtime) {
		setups++
		gen := setups // setup-local, captured by Late's factory
		r.MustRegister("Root", func() psharp.Machine { return &ckRoot{rounds: 5} })
		r.MustRegister("Early", func() psharp.Machine { return &ckEarly{} })
		r.MustRegister("Peer", func() psharp.Machine { return &ckPeer{} })
		r.MustRegister("Late", func() psharp.Machine {
			lateFrom = gen
			return &ckPeer{fuse: true}
		})
		r.MustCreate("Root", nil)
	}
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	dfs := sct.NewDFS()
	cfg := psharp.TestConfig{Strategy: dfs, MaxSteps: 500}
	late := 0
	for i := 0; i < 1500 && dfs.PrepareIteration(i); i++ {
		before := setups
		lateFrom = 0
		res := h.Run(cfg)
		if (res.RestoredPoints == 0) != (setups == before+1) {
			t.Fatalf("attempt %d: %d points restored, setup ran %d times", i, res.RestoredPoints, setups-before)
		}
		if res.RestoredPoints == 0 || lateFrom == 0 {
			continue
		}
		late++
		if lateFrom != setups {
			t.Fatalf("attempt %d created Late from the factory of setup call %d; the last of %d calls registered the live one", i, lateFrom, setups)
		}
		replaysFromSetup(t, fmt.Sprint("attempt ", i), lifecycleSetup(5, nil, nil), res, cfg)
	}
	if late == 0 {
		t.Fatal("no attempt that started from a checkpoint created Late")
	}
}

// TestCheckpointClosureFormProgramHasNone: one closure-form machine, whose
// state is in variables its actions captured, and the program is never
// checkpointed — nor searched any differently.
func TestCheckpointClosureFormProgramHasNone(t *testing.T) {
	closure := func(r *psharp.Runtime) {
		r.MustRegister("Counter", func() psharp.Machine {
			n := 0
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Count").OnEventDo(&ckGo{}, func(ctx *psharp.Context, _ psharp.Event) {
					n++
					ctx.Assert(n < 100, "counted to %d", n)
				})
			})
		})
		if err := r.SendEvent(r.MustCreate("Counter", nil), &ckGo{}); err != nil {
			panic(err)
		}
	}
	b := protocols.Benchmark{Name: "Lifecycle+closure", MaxSteps: 500}
	h := psharp.NewTestHarness(lifecycleSetup(4, nil, closure))
	defer h.Close()
	dfs := sct.NewDFS()
	for i := 0; i < 300 && dfs.PrepareIteration(i); i++ {
		if res := h.Run(psharp.TestConfig{Strategy: dfs, MaxSteps: b.MaxSteps}); res.RestoredPoints != 0 || h.Checkpoints() != 0 {
			t.Fatalf("attempt %d: %d points restored, %d checkpoints held", i, res.RestoredPoints, h.Checkpoints())
		}
	}
	live, _, _ := search(t, lifecycleSetup(4, nil, closure), b, sct.NewDFS(), 300, false, searchLive)
	plain, _, _ := search(t, lifecycleSetup(4, nil, nil), b, sct.NewDFS(), 300, false, searchLive)
	if len(live) != len(plain) {
		t.Fatalf("%d attempts with the closure-form machine, %d without", len(live), len(plain))
	}
}

// tripwire is a DFS that can be made to panic at its first decision after
// the harness resumed it in the middle of a schedule.
type tripwire struct {
	*sct.DFS
	armed   bool
	resumed int // where ResumeAt last put it, -1 if the iteration started from setup
}

type tripped struct{ at int }

func (s *tripwire) ResumeAt(n int) {
	s.DFS.ResumeAt(n)
	s.resumed = n
}

// Decide trips at a machine choice: the controller puts every query to the
// DFS's Decide, so that is where a wrapper intercepts one.
func (s *tripwire) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind == psharp.ChoiceMachine && s.armed && s.resumed >= 0 {
		panic(tripped{s.resumed})
	}
	s.DFS.Decide(c, d)
}

// TestCheckpointFirstStepAfterRestore ends an iteration at the very first
// scheduling point after a restore, three ways — the strategy panics, the
// Interrupt fires, the program fails — and wants what a stateless tester
// would give: the panic out of Run after teardown with the trace exactly as
// long as the restored prefix, an Interrupted result counting the restored
// points and nothing else, a bug that replays from setup; and each time a
// harness that carries on as if nothing had happened.
func TestCheckpointFirstStepAfterRestore(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", true)
	h := psharp.NewTestHarness(b.Setup)
	defer h.Close()
	s := &tripwire{DFS: sct.NewDFS()}
	interrupt := false
	cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, Interrupt: func() bool { return interrupt }}
	iter := 0
	next := func() (res psharp.IterationResult, panicked any) {
		t.Helper()
		if !s.PrepareIteration(iter) {
			t.Fatalf("search exhausted after %d attempts", iter)
		}
		iter++
		s.resumed = -1
		defer func() { panicked = recover() }()
		return h.Run(cfg), nil
	}
	untilRestored := func() psharp.IterationResult {
		t.Helper()
		for i := 0; i < 200; i++ {
			res, p := next()
			if p != nil {
				t.Fatalf("attempt %d panicked: %v", iter, p)
			}
			if res.RestoredPoints > 0 {
				replaysFromSetup(t, fmt.Sprint("attempt ", iter), b.Setup, res, cfg)
				return res
			}
		}
		t.Fatal("200 attempts and none started from a checkpoint")
		return psharp.IterationResult{}
	}
	untilRestored()

	s.armed = true
	_, p := next()
	s.armed = false
	trip, ok := p.(tripped)
	if !ok || trip.at <= 0 {
		t.Fatalf("Run panicked with %v, want the strategy's own value from a resumed iteration", p)
	}
	if h.TraceLen() != trip.at {
		t.Fatalf("the panicked iteration's trace holds %d decisions, it was resumed after %d", h.TraceLen(), trip.at)
	}
	untilRestored()

	interrupt = true
	res, p := next()
	interrupt = false
	if p != nil || !res.Interrupted || res.RestoredPoints == 0 || res.SchedulingPoints != res.RestoredPoints || res.Trace.Len() != s.resumed {
		t.Fatalf("interrupted at the first point after a restore: panic %v, %+v, resumed at %d", p, res, s.resumed)
	}
	untilRestored()

	// The program's own failure right after a restore: the lifecycle
	// program's Late flips its fuse as the first thing it does, one decision
	// past the quiescent point it is first scheduled at, and the harness
	// keeps searching past bugs.
	failing := lifecycleSetup(3, nil, nil)
	fh := psharp.NewTestHarness(failing)
	defer fh.Close()
	dfs := sct.NewDFS()
	fcfg := psharp.TestConfig{Strategy: dfs, MaxSteps: 500}
	first := 0
	for i := 0; i < 3000 && dfs.PrepareIteration(i); i++ {
		res := fh.Run(fcfg)
		if res.Bug == nil || res.RestoredPoints == 0 {
			continue
		}
		replaysFromSetup(t, fmt.Sprint("failing attempt ", i), failing, res, fcfg)
		if res.SchedulingPoints == res.RestoredPoints+1 {
			first++
		}
	}
	if first == 0 {
		t.Fatal("no attempt failed at its first step after a restore")
	}
}

// TestCheckpointConfigChangeAndBound: checkpoints belong to the configuration
// they were taken under — change what decides the state a prefix reaches and
// the next Run starts from setup — and a harness never holds more than
// MaxCheckpoints of them, however deep the search.
func TestCheckpointConfigChangeAndBound(t *testing.T) {
	b := protocols.MustByName("Raft", false)
	h := psharp.NewTestHarness(b.SetupMonitored())
	defer h.Close()
	dfs := sct.NewDFS()
	cfg := psharp.TestConfig{Strategy: dfs, MaxSteps: b.MaxSteps}
	iter, most := 0, 0
	run := func(cfg psharp.TestConfig) psharp.IterationResult {
		t.Helper()
		if !dfs.PrepareIteration(iter) {
			t.Fatalf("search exhausted after %d attempts", iter)
		}
		iter++
		res := h.Run(cfg)
		if n := h.Checkpoints(); n > psharp.MaxCheckpoints {
			t.Fatalf("attempt %d: the harness holds %d checkpoints, the bound is %d", iter, n, psharp.MaxCheckpoints)
		} else if n > most {
			most = n
		}
		return res
	}
	warm := func(cfg psharp.TestConfig) {
		t.Helper()
		for i := 0; i < 100; i++ {
			if run(cfg).RestoredPoints > 0 {
				return
			}
		}
		t.Fatal("100 attempts and none started from a checkpoint")
	}
	warm(cfg)
	for _, change := range []struct {
		what string
		to   func(*psharp.TestConfig)
	}{
		{"a state cache", func(c *psharp.TestConfig) { c.StateCache = &countingCache{} }},
		{"a liveness temperature", func(c *psharp.TestConfig) { c.LivenessTemperature = 100000 }},
		{"another depth bound", func(c *psharp.TestConfig) { c.MaxSteps-- }},
	} {
		change.to(&cfg)
		res := run(cfg)
		if res.RestoredPoints != 0 {
			t.Fatalf("the first Run with %s restored %d points of a checkpoint taken without", change.what, res.RestoredPoints)
		}
		replaysFromSetup(t, "the first Run with "+change.what, b.SetupMonitored(), res, cfg)
		warm(cfg)
	}
	// What checkpoints cannot carry turns them off for the Run, and drops them.
	for _, off := range []struct {
		what string
		to   func(*psharp.TestConfig)
	}{
		{"fault queries", func(c *psharp.TestConfig) { c.Faults = &psharp.FaultConfig{} }},
		{"the race detector", func(c *psharp.TestConfig) { c.RaceDetect = true }},
	} {
		with := cfg
		off.to(&with)
		if res := run(with); res.RestoredPoints != 0 || h.Checkpoints() != 0 {
			t.Fatalf("a Run with %s restored %d points and left %d checkpoints", off.what, res.RestoredPoints, h.Checkpoints())
		}
		warm(cfg)
	}
	for i := 0; i < 2000; i++ {
		run(cfg)
	}
	if most < 2 {
		t.Fatalf("the stack never held more than %d checkpoint: the bound was not exercised", most)
	}
}

// TestCheckpointCloseReleasesEverything: Close drops the snapshots and hands
// the instances the last iteration restored into to the reserve, like any
// others.
func TestCheckpointCloseReleasesEverything(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", false)
	h := psharp.NewTestHarness(b.Setup)
	dfs := sct.NewDFS()
	restored := false
	for i := 0; i < 100 && dfs.PrepareIteration(i); i++ {
		restored = h.Run(psharp.TestConfig{Strategy: dfs, MaxSteps: b.MaxSteps}).RestoredPoints > 0 || restored
	}
	if !restored || h.Checkpoints() == 0 {
		t.Fatalf("restored=%v with %d checkpoints held: nothing to release", restored, h.Checkpoints())
	}
	before := psharp.ReserveLen()
	h.Close()
	if h.Checkpoints() != 0 {
		t.Fatalf("%d checkpoints survive Close", h.Checkpoints())
	}
	if got := psharp.ReserveLen(); got <= before && got < psharp.ReserveCap {
		t.Fatalf("the reserve holds %d instances after Close, %d before", got, before)
	}
	// The next harness draws those instances and searches as the first did.
	again, _, _ := search(t, b.Setup, b, sct.NewDFS(), 100, false, searchLive)
	plain, _, _ := search(t, b.Setup, b, sct.NewDFS(), 100, false, searchNoCheckpoints)
	sameAttempts(t, "a harness built from the reserve", again, plain, nil, nil)
}

// TestCheckpointFirstAttemptAllocationCap: the first attempt of a depth-first
// campaign — all there is of a hunt that finds its bug at once — pays nothing
// for the checkpoints later attempts would use. The caps are what a
// one-attempt campaign allocated before checkpoints existed (the state plans
// took allocations off the cached ones; a reduced node's backtrack and
// explored sets being one array took one more off TwoPhaseCommit's).
func TestCheckpointFirstAttemptAllocationCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need a quiet process")
	}
	for _, tc := range []struct {
		protocol    string
		dfs, cached float64
	}{
		{"Chord", 154, 321},
		{"TwoPhaseCommit", 267, 550},
		{"German", 269, 556},
		{"BoundedAsync", 234, 586},
	} {
		b := protocols.MustByName(tc.protocol, false)
		for _, cached := range []bool{false, true} {
			campaign := func() {
				var s sct.Strategy = sct.NewDFS()
				if cached {
					s = sct.NewDPOR()
				}
				sct.Run(b.Setup, sct.Options{Strategy: s, Iterations: 1, MaxSteps: b.MaxSteps, StateCache: cached})
			}
			campaign() // the reserve, the plans and the schema caches are warm in any hunt but a process's first
			limit := tc.dfs
			if cached {
				limit = tc.cached
			}
			if got := testing.AllocsPerRun(20, campaign); got > limit {
				t.Errorf("%s, cache %v: a one-attempt campaign allocates %.0f times, %.0f before checkpoints", tc.protocol, cached, got, limit)
			}
		}
	}
}

// TestReducedSearchSteadyAllocationCap holds what a reduced attempt costs once
// the search is under way: a node's reduction — backtrack and explored flags,
// the footprints of its explored branches — and its enabled set come from a
// node popped before it, and an attempt starts from a checkpoint at any
// scheduling point, so most of what it allocates is the handlers it runs
// past it and the restore's relocation of the snapshot's image: one
// allocation per object the image holds (a slice's array alone, no header
// beside it; a box once) and a map per map; a reduction made per node would be
// 15 more. Attempts 100 to 400, per attempt. The caps were 20/21, 24/29,
// 15/17 and 12/11 when a restore walked the snapshot.
func TestReducedSearchSteadyAllocationCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need a quiet process")
	}
	for _, tc := range []struct {
		protocol  string
		dfs, dpor float64
	}{
		{"Chord", 17, 18},
		{"TwoPhaseCommit", 23, 27},
		{"German", 15, 16},
		{"BoundedAsync", 11, 10},
	} {
		b := protocols.MustByName(tc.protocol, false)
		for _, s := range []sct.Strategy{sct.NewDFS(), sct.NewDPOR()} {
			h := psharp.NewTestHarness(b.Setup)
			cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps}
			iter := 0
			attempt := func() {
				if !s.PrepareIteration(iter) {
					t.Fatalf("%s: %T exhausted after %d attempts", tc.protocol, s, iter)
				}
				iter++
				h.Run(cfg)
			}
			for iter < 99 {
				attempt()
			}
			limit := tc.dfs
			if _, reduced := s.(*sct.DPOR); reduced {
				limit = tc.dpor
			}
			if got := testing.AllocsPerRun(300, attempt); got > limit {
				t.Errorf("%s: an attempt of %T allocates %.0f times in steady state, cap %.0f", tc.protocol, s, got, limit)
			}
			h.Close()
		}
	}
}

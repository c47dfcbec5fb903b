package psharp_test

// What a restore keeps (checkpoint.go): the machines the last Run left as the
// snapshot holds them, which it neither rebuilds nor tears down. The sharing
// half of the keep rule is sct's TestKeepRuleSharedMemory.

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// TestKeepParkedMachineResumes: a machine parked mid-handler that restores
// keep across Runs resumes at its yield point. Every attempt of the search
// ends in the state — the hash of every machine, recomputed — that it ends
// in when every restore rebuilds every machine, a parked one by catch-up.
func TestKeepParkedMachineResumes(t *testing.T) {
	setup := midHandlerSetup(3)
	for _, tc := range []struct {
		name  string
		fresh func() sct.Strategy
	}{
		{"dfs+cache", func() sct.Strategy { return sct.NewDFS() }},
		{"dpor+cache", func() sct.Strategy { return sct.NewDPOR() }},
	} {
		run := func(rebuild bool) (log []attempt, ends []uint64, cache *ownerCache, parked int) {
			s := tc.fresh()
			cache = newOwnerCache()
			cfg := psharp.TestConfig{Strategy: s, MaxSteps: 500, StateCache: cache}
			h := psharp.NewTestHarness(setup)
			defer h.Close()
			restored := 0
			for i := 0; i < 1500 && s.PrepareIteration(i); i++ {
				if rebuild {
					h.Idle()
				}
				res := h.Run(cfg)
				if res.Err != nil {
					t.Fatalf("%s: attempt %d: %v", tc.name, i, res.Err)
				}
				a := attempt{pruned: res.Pruned, points: res.SchedulingPoints, replayed: res.ReplayedPoints,
					continued: res.ContinuedPoints, trace: encodeTrace(t, res.Trace)}
				if res.Bug != nil {
					a.bug = res.Bug.Error()
				}
				log, ends = append(log, a), append(ends, h.RehashState())
				if res.RestoredPoints > 0 {
					restored++
				}
			}
			_, parked, _ = h.Kept()
			if restored == 0 {
				t.Fatalf("%s (rebuild %v): no attempt started from a checkpoint", tc.name, rebuild)
			}
			return log, ends, cache, parked
		}
		kept, keptEnds, keptCache, parked := run(false)
		rebuilt, rebuiltEnds, rebuiltCache, none := run(true)
		sameAttempts(t, tc.name+", parked machines kept/rebuilt", kept, rebuilt, keptCache, rebuiltCache)
		if !slices.Equal(keptEnds, rebuiltEnds) {
			i := 0
			for i < min(len(keptEnds), len(rebuiltEnds))-1 && keptEnds[i] == rebuiltEnds[i] {
				i++
			}
			t.Fatalf("%s: attempt %d ends in state %x with machines kept, %x with them rebuilt", tc.name, i, keptEnds[i], rebuiltEnds[i])
		}
		if parked == 0 || none != 0 {
			t.Fatalf("%s: restores kept %d machines parked mid-handler, %d when every Run was torn down", tc.name, parked, none)
		}
	}
}

// TestKeepCloseParksEveryCoroutine: a harness whose last Run deferred its
// teardown — machines left parked mid-handler, for the next restore to keep
// — unwinds them on Close: every instance it hands the reserve has its
// coroutine at the top of poolLoop, and a harness built from the reserve
// searches as a fresh one.
func TestKeepCloseParksEveryCoroutine(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", false)
	h := psharp.NewTestHarness(b.Setup)
	s := sct.NewDPOR()
	cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, StateCache: newOwnerCache()}
	kept, live := 0, 0
	for i := 0; i < 1000 && s.PrepareIteration(i) && (kept == 0 || live == 0); i++ {
		h.Run(cfg)
		kept, _, _ = h.Kept()
		live = h.LiveParked()
	}
	if kept == 0 || live == 0 {
		t.Fatalf("restores kept %d machines and the last Run left %d parked mid-handler: nothing for Close to unwind", kept, live)
	}
	h.Close()
	if !psharp.ReserveAtLoopTop() {
		t.Fatal("Close handed the reserve an instance with a run frame still on its coroutine")
	}
	again, _, _ := search(t, b.Setup, b, sct.NewDFS(), 100, false, searchLive)
	plain, _, _ := search(t, b.Setup, b, sct.NewDFS(), 100, false, searchNoCheckpoints)
	sameAttempts(t, "a harness built from the reserve", again, plain, nil, nil)
}

// staleCheck is a state cache that holds every hash it is shown to a rehash
// of the same state from scratch, and prunes as ownerCache does.
type staleCheck struct {
	*ownerCache
	h     *psharp.TestHarness
	wrong int // the depth of the first hash that differs, plus one
}

func (c *staleCheck) Visit(state, prefix uint64, depth int) bool {
	if c.wrong == 0 && state != c.h.RehashState() {
		c.wrong = depth + 1
	}
	return c.ownerCache.Visit(state, prefix, depth)
}

// TestKeepStaleMachineHashes: a kept machine whose state-hash component is
// stale — changed after the last point that hashed it — is rehashed at the
// next point, and until then counts in the hash with the component it has,
// as every machine does. Under a state cache, every hash a search shows the
// cache equals the state rehashed from scratch. Without a cache, a program
// whose monitor turns hot and cold hashes only while it is hot; after every
// attempt its search leaves the lasso table — every state it hashed — that
// the same search leaves with every machine rebuilt at every restore. Both
// halves fail if a restore does not mark a kept stale machine for rehashing.
func TestKeepStaleMachineHashes(t *testing.T) {
	strategies := []struct {
		name  string
		fresh func() sct.Strategy
	}{
		{"dfs", func() sct.Strategy { return sct.NewDFS() }},
		{"dpor", func() sct.Strategy { return sct.NewDPOR() }},
	}
	stale := 0
	for _, b := range protocols.All() {
		for _, st := range strategies {
			h := psharp.NewTestHarness(b.Setup)
			cache := &staleCheck{ownerCache: newOwnerCache(), h: h}
			s := st.fresh()
			cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug, StateCache: cache}
			for i := 0; i < 300 && s.PrepareIteration(i); i++ {
				if res := h.Run(cfg); res.Err != nil {
					t.Fatalf("%s/%s+cache: attempt %d: %v", b.ID(), st.name, i, res.Err)
				}
				if cache.wrong != 0 {
					t.Fatalf("%s/%s+cache: attempt %d hashed the state at depth %d other than a rehash", b.ID(), st.name, i, cache.wrong-1)
				}
			}
			_, _, n := h.Kept()
			stale += n
			h.Close()
		}
	}
	if stale == 0 {
		t.Fatal("under a cache, no restore kept a machine whose component was stale")
	}

	rewarmed := protocols.Benchmark{Name: "Rewarmed", MaxSteps: 60, Setup: rewarmedSetup}
	recooled := protocols.Benchmark{Name: "Recooled", MaxSteps: 60, Setup: recooledSetup}
	stale = 0
	for _, b := range []protocols.Benchmark{rewarmed, recooled, protocols.MustByName("FairResponder", false)} {
		for _, st := range strategies {
			run := func(rebuild bool) (log []attempt, tables []map[uint64]int, stale int) {
				h := psharp.NewTestHarness(b.SetupMonitored())
				defer h.Close()
				s := st.fresh()
				cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps}
				for i := 0; i < 300 && s.PrepareIteration(i); i++ {
					if rebuild {
						h.Idle()
					}
					res := h.Run(cfg)
					if res.Err != nil {
						t.Fatalf("%s/%s: attempt %d: %v", b.ID(), st.name, i, res.Err)
					}
					a := attempt{pruned: res.Pruned, points: res.SchedulingPoints, replayed: res.ReplayedPoints,
						continued: res.ContinuedPoints, trace: encodeTrace(t, res.Trace)}
					if res.Bug != nil {
						a.bug = res.Bug.Error()
					}
					log, tables = append(log, a), append(tables, h.LassoTable())
				}
				_, _, stale = h.Kept()
				return log, tables, stale
			}
			kept, keptTables, n := run(false)
			rebuilt, rebuiltTables, _ := run(true)
			sameAttempts(t, b.ID()+"/"+st.name+", machines kept/rebuilt", kept, rebuilt, nil, nil)
			for i := range keptTables {
				if !maps.Equal(keptTables[i], rebuiltTables[i]) {
					t.Fatalf("%s/%s: attempt %d leaves a lasso table of %d states with machines kept, %d with them rebuilt",
						b.ID(), st.name, i, len(keptTables[i]), len(rebuiltTables[i]))
				}
			}
			stale += n
		}
	}
	if stale == 0 {
		t.Fatal("without a cache, no restore kept a machine whose component was stale")
	}
}

// rewarmedSetup leaves the monitor hot with a request to a rewarmer, and
// ticks to a two-stepper and two three-steppers. The rewarmer answers the
// request, which cools the monitor, and draws whether to request again, up
// to three times: the monitor turns hot and cold as the search decides, and
// steppers that step while it is cold are not hashed, stay stale and may be
// kept so.
func rewarmedSetup(r *psharp.Runtime) {
	for _, n := range []int{2, 3} {
		r.MustRegister(fmt.Sprintf("Step%d", n), func() psharp.Machine { return &stepper{limit: n} })
	}
	r.MustRegister("Rewarmer", func() psharp.Machine { return &rewarmer{} })
	r.MustRegisterMonitor("Responds", mtResponds)
	for _, name := range []string{"Step2", "Step3", "Step3"} {
		if err := r.SendEvent(r.MustCreate(name, nil), &mtOutcome{}); err != nil {
			panic(err)
		}
	}
	if err := r.SendEvent(r.MustCreate("Rewarmer", nil), &mtReq{}); err != nil {
		panic(err)
	}
}

// stepper counts limit ticks, sending itself all but the first.
type stepper struct {
	psharp.StaticBase
	n, limit int
}

func (*stepper) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").OnEventDoM(&mtOutcome{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		t := m.(*stepper)
		if t.n++; t.n < t.limit {
			ctx.Send(ctx.ID(), &mtOutcome{})
		}
	})
}

// rewarmer answers a request by sending itself the response, which cools
// the monitor; at each of its first three responses it draws whether to
// request again.
type rewarmer struct {
	psharp.StaticBase
	drawn int
}

func (*rewarmer) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&mtReq{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Send(ctx.ID(), &mtResp{}) }).
		OnEventDoM(&mtResp{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			if w := m.(*rewarmer); w.drawn < 3 {
				w.drawn++
				if ctx.RandomBool() {
					ctx.Send(ctx.ID(), &mtReq{})
				}
			}
		})
}

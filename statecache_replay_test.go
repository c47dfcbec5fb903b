package psharp_test

// Tests for the replay memo of the state hasher: a depth-first attempt
// hashes and shows its StateCache only the suffix the previous attempt of
// the same harness did not reach. The names start with TestStateCache so
// CI's "DPOR + state cache suite" step runs them under the race detector.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/psharp-go/psharp"
	amsg "github.com/psharp-go/psharp/internal/hashtest/a/msg"
	bmsg "github.com/psharp-go/psharp/internal/hashtest/b/msg"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// attempt is what one iteration of a search looked like from outside.
type attempt struct {
	pruned    bool
	points    int
	replayed  int
	continued int
	trace     string
	bug       string
}

// searchMode says how much a search may remember from one attempt to the
// next.
type searchMode int

const (
	searchLive          searchMode = iota // replay memo and checkpoints, as shipped
	searchNoCheckpoints                   // every attempt executes every point, from setup
	searchEveryPoint                      // and hashes and shows its cache every point, too
)

// search makes up to attempts attempts of strategy s on the program setup
// builds through one harness, with an ownership cache attached if cached.
// Whatever mode forbids is dropped before each attempt (through
// export_test.go: there is no option for it).
func search(t *testing.T, setup func(*psharp.Runtime), b protocols.Benchmark, s sct.Strategy, attempts int, cached bool, mode searchMode) (log []attempt, cache *ownerCache, restored int) {
	t.Helper()
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
	if cached {
		cache = newOwnerCache()
		cfg.StateCache = cache
	}
	for i := 0; i < attempts && s.PrepareIteration(i); i++ {
		switch mode {
		case searchNoCheckpoints:
			h.ForgetCheckpoints()
		case searchEveryPoint:
			h.ForgetReplay()
		}
		res := h.Run(cfg)
		var enc bytes.Buffer
		if err := res.Trace.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		a := attempt{pruned: res.Pruned, points: res.SchedulingPoints, replayed: res.ReplayedPoints,
			continued: res.ContinuedPoints, trace: enc.String()}
		if res.Bug != nil {
			a.bug = res.Bug.Error()
		}
		if res.Err != nil {
			t.Fatalf("attempt %d: %v", i, res.Err)
		}
		if mode != searchLive && res.RestoredPoints != 0 {
			t.Fatalf("attempt %d restored %d points with checkpoints forgotten", i, res.RestoredPoints)
		}
		log = append(log, a)
		restored += res.RestoredPoints
	}
	return log, cache, restored
}

func sameAttempts(t *testing.T, what string, got, want []attempt, gotCache, wantCache *ownerCache) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d attempts against %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: attempt %d diverges:\n  got %+v\n want %+v", what, i, got[i], want[i])
		}
	}
	if gotCache != nil && !reflect.DeepEqual(gotCache.owners, wantCache.owners) {
		t.Fatalf("%s: owner tables differ: %d states against %d", what, len(gotCache.owners), len(wantCache.owners))
	}
}

// TestStateCacheReplaySkipEquivalence is the simulation argument as a test.
// On every Table 2 protocol, under both depth-first strategies, with and
// without a state cache, the search as shipped — starting each attempt from
// the deepest checkpoint inside the prefix it repeats, neither hashing nor
// showing its cache what it replays — makes attempt for attempt the run of
// the search that executes every point from setup, and of the one that also
// hashes and visits every point: same prune flags, depths, replayed counts,
// traces byte for byte and bugs, and the same owner table left in the cache.
func TestStateCacheReplaySkipEquivalence(t *testing.T) {
	const attempts = 300
	restoredAnywhere := 0
	for _, b := range protocols.All() {
		for _, s := range []struct {
			name  string
			fresh func() sct.Strategy
		}{
			{"dfs", func() sct.Strategy { return sct.NewDFS() }},
			{"dpor", func() sct.Strategy { return sct.NewDPOR() }},
		} {
			t.Run(b.ID()+"/"+s.name, func(t *testing.T) {
				live, _, restored := search(t, b.Setup, b, s.fresh(), attempts, false, searchLive)
				plain, _, _ := search(t, b.Setup, b, s.fresh(), attempts, false, searchNoCheckpoints)
				sameAttempts(t, "no cache, checkpoints on/off", live, plain, nil, nil)
				restoredAnywhere += restored
			})
			t.Run(b.ID()+"/"+s.name+"+cache", func(t *testing.T) {
				live, liveCache, restored := search(t, b.Setup, b, s.fresh(), attempts, true, searchLive)
				skip, skipCache, _ := search(t, b.Setup, b, s.fresh(), attempts, true, searchNoCheckpoints)
				full, fullCache, _ := search(t, b.Setup, b, s.fresh(), attempts, true, searchEveryPoint)
				sameAttempts(t, "checkpoints on/off", live, skip, liveCache, skipCache)
				if liveCache.visits != skipCache.visits {
					t.Fatalf("%d visits with checkpoints, %d without", liveCache.visits, skipCache.visits)
				}
				replayed := 0
				for i := range skip {
					replayed += skip[i].replayed
					skip[i].replayed = 0 // the every-point search replays nothing, by construction
					if full[i].replayed != 0 {
						t.Fatalf("the every-point search skipped %d points in attempt %d", full[i].replayed, i)
					}
				}
				sameAttempts(t, "prefix skipped/every point visited", skip, full, skipCache, fullCache)
				// The comparison means something only if the skip happened.
				if len(skip) > 1 && (replayed == 0 || skipCache.visits+replayed != fullCache.visits) {
					t.Fatalf("skip path not exercised: %d points replayed, %d visits against %d",
						replayed, skipCache.visits, fullCache.visits)
				}
				restoredAnywhere += restored
			})
		}
		if b.Monitors != nil {
			// The monitored program: monitor state is part of a checkpoint.
			t.Run(b.ID()+"/monitored", func(t *testing.T) {
				live, liveCache, restored := search(t, b.SetupMonitored(), b, sct.NewDPOR(), attempts, true, searchLive)
				plain, plainCache, _ := search(t, b.SetupMonitored(), b, sct.NewDPOR(), attempts, true, searchNoCheckpoints)
				sameAttempts(t, "monitored, checkpoints on/off", live, plain, liveCache, plainCache)
				restoredAnywhere += restored
			})
		}
	}
	if restoredAnywhere == 0 {
		t.Fatal("no attempt of any search started from a checkpoint")
	}
}

// countingCache never prunes; it counts Visit calls.
type countingCache struct{ visits int }

func (c *countingCache) Visit(_, _ uint64, _ int) bool { c.visits++; return false }

// mapCache is a cache of a map type: comparing two StateCache interfaces
// that hold one panics, so the controller must not try.
type mapCache map[string]int

func (c mapCache) Visit(_, _ uint64, _ int) bool { c["visits"]++; return false }

// sharedPoints is how many scheduling points of cur were reached by the
// decisions prev made too: the points the replay memo lets cur skip.
func sharedPoints(prev, cur *psharp.Trace) int {
	n := 0
	for i, d := range cur.Decisions {
		if i >= len(prev.Decisions) {
			break
		}
		if d.Kind == psharp.DecisionSchedule {
			n++ // everything before this point matched
		}
		if prev.Decisions[i] != d {
			break
		}
	}
	return n
}

// TestStateCacheVisitsOnlyNewSuffix locks the gain in: under DFS the cache
// is shown the first attempt's every point and after that only what each
// attempt does not share with the one before it — and everything again
// whenever the memo could lie.
func TestStateCacheVisitsOnlyNewSuffix(t *testing.T) {
	h := psharp.NewTestHarness(staticBallotSetup())
	defer h.Close()
	dfs := sct.NewDFS()
	cache := &countingCache{}
	cfg := psharp.TestConfig{Strategy: dfs, StateCache: cache}
	iter := 0
	run := func(cfg psharp.TestConfig) psharp.IterationResult {
		t.Helper()
		if !dfs.PrepareIteration(iter) {
			t.Fatalf("DFS exhausted the ballot program after %d attempts", iter)
		}
		iter++
		return h.Run(cfg)
	}

	const attempts = 200
	var prev *psharp.Trace
	depths, want := 0, 0
	for i := 0; i < attempts; i++ {
		before := cache.visits
		res := run(cfg)
		shared := 0
		if prev != nil {
			shared = sharedPoints(prev, res.Trace)
		}
		if res.ReplayedPoints != shared {
			t.Fatalf("attempt %d: %d points replayed, shares %d with the attempt before", i, res.ReplayedPoints, shared)
		}
		if got := cache.visits - before; got != res.SchedulingPoints-shared {
			t.Fatalf("attempt %d: %d visits, want %d points - %d shared", i, got, res.SchedulingPoints, shared)
		}
		depths += res.SchedulingPoints
		want += res.SchedulingPoints - shared
		prev = res.Trace.Clone()
	}
	if cache.visits != want || 2*cache.visits > depths {
		t.Fatalf("%d visits over %d attempts, want %d (the new suffixes), well under the %d points executed",
			cache.visits, attempts, want, depths)
	}

	// Whatever could make the memo lie drops it: the next attempt shows
	// the cache every point, the one after only its suffix again.
	visitsAll := func(what string, cfg psharp.TestConfig, visits func() int) {
		t.Helper()
		before := visits()
		res := run(cfg)
		if got := visits() - before; got != res.SchedulingPoints || res.ReplayedPoints != 0 {
			t.Fatalf("%s: %d visits and %d replayed over %d points, want every point visited",
				what, got, res.ReplayedPoints, res.SchedulingPoints)
		}
		if res = run(cfg); res.ReplayedPoints == 0 {
			t.Fatalf("%s: the attempt after skipped nothing", what)
		}
	}
	other := &countingCache{}
	cfg.StateCache = other
	visitsAll("a different cache", cfg, func() int { return other.visits })
	run(psharp.TestConfig{Strategy: dfs})
	visitsAll("after a Run without a cache", cfg, func() int { return other.visits })
	cfg.LivenessTemperature = 1000
	visitsAll("a different LivenessTemperature", cfg, func() int { return other.visits })

	// A cache that cannot be compared is a new cache every Run.
	m := mapCache{}
	cfg.StateCache = m
	for i := 0; i < 3; i++ {
		before := m["visits"]
		res := run(cfg)
		if got := m["visits"] - before; got != res.SchedulingPoints || res.ReplayedPoints != 0 {
			t.Fatalf("map-typed cache, attempt %d: %d visits and %d replayed over %d points, want every point visited",
				i, got, res.ReplayedPoints, res.SchedulingPoints)
		}
	}
}

// firstState is a cache that records the first state hash it is shown and
// cuts the iteration there.
type firstState struct{ hash uint64 }

func (c *firstState) Visit(state, _ uint64, _ int) bool { c.hash = state; return true }

// pingSink takes either Ping and does nothing.
type pingSink struct{ psharp.StaticBase }

func (*pingSink) ConfigureType(sc *psharp.Schema) {
	sc.Start("Wait").
		OnEventDoM(&amsg.Ping{}, func(psharp.Machine, *psharp.Context, psharp.Event) {}).
		OnEventDoM(&bmsg.Ping{}, func(psharp.Machine, *psharp.Context, psharp.Event) {})
}

// TestStateCacheTellsSameNamedEventTypes: a/msg.Ping and b/msg.Ping print
// alike ("*msg.Ping") and carry no payload, so only the types' package
// paths tell a queue holding one from a queue holding the other. Hashing
// them alike would prune the subtree of whichever comes second.
func TestStateCacheTellsSameNamedEventTypes(t *testing.T) {
	if a, b := fmt.Sprintf("%T", &amsg.Ping{}), fmt.Sprintf("%T", &bmsg.Ping{}); a != b {
		t.Fatalf("the test needs two types that print alike, got %s and %s", a, b)
	}
	queued := func(ev psharp.Event) uint64 {
		cache := &firstState{}
		dfs := sct.NewDFS()
		dfs.PrepareIteration(0)
		psharp.RunTest(func(r *psharp.Runtime) {
			r.MustRegister("Sink", func() psharp.Machine { return &pingSink{} })
			if err := r.SendEvent(r.MustCreate("Sink", nil), ev); err != nil {
				panic(err)
			}
		}, psharp.TestConfig{Strategy: dfs, StateCache: cache})
		return cache.hash
	}
	a, again, b := queued(&amsg.Ping{}), queued(&amsg.Ping{}), queued(&bmsg.Ping{})
	if a != again {
		t.Fatalf("the same queued event hashed to %#x and %#x", a, again)
	}
	if a == b {
		t.Fatalf("a/msg.Ping and b/msg.Ping queued hash alike (%#x)", a)
	}
}

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
	pruned bool
	points int
	trace  string
	bug    string
}

// searchWithCache makes up to attempts attempts of strategy s on b through
// one harness with an ownership cache attached. With everyPoint set it
// drops the replay memo before each attempt, so every scheduling point is
// hashed and shown to the cache, as before the memo existed.
func searchWithCache(t *testing.T, b protocols.Benchmark, s sct.Strategy, attempts int, everyPoint bool) (log []attempt, cache *ownerCache, replayed int) {
	t.Helper()
	h := psharp.NewTestHarness(b.Setup)
	defer h.Close()
	cache = newOwnerCache()
	cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug, StateCache: cache}
	for i := 0; i < attempts && s.PrepareIteration(i); i++ {
		if everyPoint {
			h.ForgetReplay()
		}
		res := h.Run(cfg)
		var enc bytes.Buffer
		if err := res.Trace.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		a := attempt{pruned: res.Pruned, points: res.SchedulingPoints, trace: enc.String()}
		if res.Bug != nil {
			a.bug = res.Bug.Error()
		}
		log = append(log, a)
		replayed += res.ReplayedPoints
	}
	return log, cache, replayed
}

// TestStateCacheReplaySkipEquivalence is the simulation argument as a test:
// on every Table 2 protocol, under both depth-first strategies, the search
// that skips its replayed prefixes makes attempt for attempt the run of the
// search that hashes and visits every point — same prune flags, depths,
// traces and bugs — and leaves the cache with the same owner table.
func TestStateCacheReplaySkipEquivalence(t *testing.T) {
	const attempts = 300
	for _, b := range protocols.All() {
		for _, s := range []struct {
			name  string
			fresh func() sct.Strategy
		}{
			{"dfs", func() sct.Strategy { return sct.NewDFS() }},
			{"dpor", func() sct.Strategy { return sct.NewDPOR() }},
		} {
			t.Run(b.ID()+"/"+s.name, func(t *testing.T) {
				skipLog, skipCache, replayed := searchWithCache(t, b, s.fresh(), attempts, false)
				fullLog, fullCache, fullReplayed := searchWithCache(t, b, s.fresh(), attempts, true)
				if len(skipLog) != len(fullLog) {
					t.Fatalf("%d attempts with the prefix skipped, %d with every point visited", len(skipLog), len(fullLog))
				}
				for i := range skipLog {
					if skipLog[i] != fullLog[i] {
						t.Fatalf("attempt %d diverges:\n skipping %+v\n visiting %+v", i, skipLog[i], fullLog[i])
					}
				}
				if !reflect.DeepEqual(skipCache.owners, fullCache.owners) {
					t.Fatalf("owner tables differ: %d states with the prefix skipped, %d with every point visited",
						len(skipCache.owners), len(fullCache.owners))
				}
				if fullReplayed != 0 {
					t.Fatalf("the every-point search skipped %d points", fullReplayed)
				}
				// The comparison means something only if the skip happened.
				if len(skipLog) > 1 && (replayed == 0 || skipCache.visits+replayed != fullCache.visits) {
					t.Fatalf("skip path not exercised: %d points replayed, %d visits against %d",
						replayed, skipCache.visits, fullCache.visits)
				}
			})
		}
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
	h := psharp.NewTestHarness(ballotSetup())
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
			r.MustRegister("Sink", func() psharp.Machine {
				return psharp.MachineFunc(func(sc *psharp.Schema) {
					sc.Start("Wait").
						OnEventDo(&amsg.Ping{}, func(*psharp.Context, psharp.Event) {}).
						OnEventDo(&bmsg.Ping{}, func(*psharp.Context, psharp.Event) {})
				})
			})
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

package psharp_test

// Tests for the skip of the repeated prefix: a depth-first attempt hashes
// and shows its StateCache only what lies past the prefix the strategy
// promises to repeat of the previous attempt of the same harness. The names
// start with TestStateCache so CI's "DPOR + state cache suite" step runs them
// under the race detector.

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
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
	searchLive          searchMode = iota // skip of the repeated prefix and checkpoints, as shipped
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

// countingCache never prunes; it counts Visit calls and keeps what each was
// shown.
type countingCache struct {
	visits int
	seen   []cacheVisit
}

type cacheVisit struct {
	state, prefix uint64
	depth         int
}

func (c *countingCache) Visit(state, prefix uint64, depth int) bool {
	c.visits++
	c.seen = append(c.seen, cacheVisit{state, prefix, depth})
	return false
}

// mapCache is a cache of a map type: comparing two StateCache interfaces
// that hold one panics, so the controller must not try.
type mapCache map[string]int

func (c mapCache) Visit(_, _ uint64, _ int) bool { c["visits"]++; return false }

// sharedPoints is how many scheduling points of cur were reached by the
// decisions prev made too: the points a depth-first strategy promises to
// repeat, which cur skips.
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

// promiseless forwards only sct.Strategy's methods: the DFS it wraps makes
// the same search, but promises nothing (psharp.PrefixResumer).
type promiseless struct{ sct.Strategy }

// firstEnabled always steps the first enabled machine and draws zeros, so it
// promises to repeat every decision of the attempt before.
type firstEnabled struct{}

func (firstEnabled) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	return enabled[0]
}
func (firstEnabled) NextBool() bool                            { return false }
func (firstEnabled) NextInt(int) int                           { return 0 }
func (firstEnabled) RepeatedPrefix(prev []psharp.Decision) int { return len(prev) }
func (firstEnabled) ResumeAt(int)                              {}

// depthCache prunes every state shown to it at depth at.
type depthCache struct{ at int }

func (c depthCache) Visit(_, _ uint64, depth int) bool { return depth == c.at }

// suffixVisits is what one attempt showed its cache.
type suffixVisits struct{ points, replayed, visits int }

// TestStateCacheVisitsOnlyNewSuffix locks the gain in: under DFS the cache
// is shown the first attempt's every point and after that only what each
// attempt does not share with the one before it — and everything again
// whenever the promise could lie or was not made. The skip follows the
// promise, not whether checkpoints may be taken: an execution log and the
// race detector turn checkpoints off and leave the skip as it is.
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
	var plain []suffixVisits
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
		plain = append(plain, suffixVisits{res.SchedulingPoints, res.ReplayedPoints, cache.visits - before})
	}
	if cache.visits != want || 2*cache.visits > depths {
		t.Fatalf("%d visits over %d attempts, want %d (the new suffixes), well under the %d points executed",
			cache.visits, attempts, want, depths)
	}

	// The same search on a harness of its own: under an execution log or
	// the race detector it skips what the plain one skipped; behind a
	// wrapper that hides the promise it visits every point.
	for _, in := range []struct {
		what       string
		cfg        psharp.TestConfig
		everyPoint bool
	}{
		{"an execution log", psharp.TestConfig{Log: io.Discard}, false},
		{"RaceDetect", psharp.TestConfig{RaceDetect: true}, false},
		{"a DFS hiding PrefixResumer", psharp.TestConfig{}, true},
	} {
		h := psharp.NewTestHarness(staticBallotSetup())
		dfs := sct.NewDFS()
		cache := &countingCache{}
		cfg := in.cfg
		cfg.Strategy, cfg.StateCache = dfs, cache
		if in.everyPoint {
			cfg.Strategy = promiseless{dfs}
		}
		for i, want := range plain {
			dfs.PrepareIteration(i)
			before := cache.visits
			res := h.Run(cfg)
			if in.everyPoint {
				want.replayed, want.visits = 0, want.points
			}
			if got := (suffixVisits{res.SchedulingPoints, res.ReplayedPoints, cache.visits - before}); got != want {
				t.Fatalf("%s, attempt %d: %+v, want %+v", in.what, i, got, want)
			}
		}
		h.Close()
	}

	// The same search on a new harness once more after each of three others
	// has recycled its instances through the process-wide reserve: one of
	// another program with a cache, one without, and one whose strategy
	// panicked mid-iteration. A machine's hash component and its stale mark
	// ride the instance, and none may carry over: the cache is shown the
	// first search's states and prefixes at its depths, visit for visit.
	tpc := protocols.MustByName("TwoPhaseCommit", false)
	for _, prior := range []struct {
		what   string
		cache  psharp.StateCache
		panics bool
	}{
		{"another program with a cache", &countingCache{}, false},
		{"another program without a cache", nil, false},
		{"a strategy that panicked mid-iteration", &countingCache{}, true},
	} {
		other := psharp.NewTestHarness(tpc.Setup)
		s := sct.NewDFS()
		cfg := psharp.TestConfig{Strategy: s, StateCache: prior.cache, MaxSteps: tpc.MaxSteps}
		if prior.panics {
			cfg.Strategy = &panicAt{Strategy: s, k: 10}
		}
		func() {
			defer func() {
				if got := recover(); (got != nil) != prior.panics {
					t.Fatalf("%s: Run panicked with %v", prior.what, got)
				}
			}()
			for i := 0; i < 20 && s.PrepareIteration(i); i++ {
				other.Run(cfg)
			}
		}()
		other.Close()

		h := psharp.NewTestHarness(staticBallotSetup())
		dfs := sct.NewDFS()
		again := &countingCache{}
		for i := range plain {
			dfs.PrepareIteration(i)
			h.Run(psharp.TestConfig{Strategy: dfs, StateCache: again})
		}
		h.Close()
		if !slices.Equal(again.seen, cache.seen) {
			t.Fatalf("after %s: the cache was shown other visits than by the first search (%d against %d)",
				prior.what, len(again.seen), len(cache.seen))
		}
	}

	// A promise that takes in the whole of a pruned attempt: the point the
	// attempt was pruned at is inside the prefix, but the cache never passed
	// it, so it is shown the point again and prunes there again.
	{
		h := psharp.NewTestHarness(staticBallotSetup())
		cfg := psharp.TestConfig{Strategy: firstEnabled{}, StateCache: depthCache{at: 3}}
		for i := 0; i < 3; i++ {
			res := h.Run(cfg)
			if want := min(i, 1) * 3; !res.Pruned || res.SchedulingPoints != 3 || res.ReplayedPoints != want {
				t.Fatalf("a promise of all of a pruned attempt, attempt %d: pruned %v at %d points, %d replayed, want pruned at 3, %d replayed",
					i, res.Pruned, res.SchedulingPoints, res.ReplayedPoints, want)
			}
		}
		h.Close()
	}

	// Whatever could make the promise lie drops the skip: the next attempt
	// shows the cache every point, the one after only its suffix again.
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

type clTick struct{ psharp.EventBase }

// clSender creates a sink and sends it clSends events, all in its entry
// action: one handler chain of twice as many ops as sends, counting the
// yield points.
type clSender struct{ psharp.StaticBase }

const clSends = 5000

func (*clSender) ConfigureType(sc *psharp.Schema) {
	sc.Start("Send").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		sink := ctx.CreateMachine("Sink", nil)
		for i := 0; i < clSends; i++ {
			ctx.Send(sink, &clTick{})
		}
	})
}

type clSink struct{ psharp.StaticBase }

func (*clSink) ConfigureType(sc *psharp.Schema) {
	sc.Start("Sink").OnEventDoM(&clTick{}, func(psharp.Machine, *psharp.Context, psharp.Event) {})
}

// TestStateCacheChainLogBounded: a chain's log is kept only as long as
// something reads it. With no snapshot recording the chain, the state hash
// drops what it has folded, also on the prefix an attempt replays, where it
// takes no hash: the sender's log of a 5 000-send entry action stays a
// step's worth of ops.
func TestStateCacheChainLogBounded(t *testing.T) {
	h := psharp.NewTestHarness(func(r *psharp.Runtime) {
		r.MustRegister("Sender", func() psharp.Machine { return &clSender{} })
		r.MustRegister("Sink", func() psharp.Machine { return &clSink{} })
		r.MustCreate("Sender", nil)
	})
	defer h.Close()
	s := sct.NewDFS()
	cfg := psharp.TestConfig{Strategy: s, StateCache: &countingCache{}}
	replayed := 0
	for i := 0; i < 3 && s.PrepareIteration(i); i++ {
		h.ForgetCheckpoints() // no snapshot, so no chain is recorded
		res := h.Run(cfg)
		if res.Err != nil || res.Bug != nil || res.SchedulingPoints < clSends {
			t.Fatalf("attempt %d: %d points, err %v, bug %v", i, res.SchedulingPoints, res.Err, res.Bug)
		}
		replayed = max(replayed, res.ReplayedPoints)
		// The first attempt ran on instances another harness may have
		// left: measure from the second on.
		if n := h.ChainLogCap(); i > 0 && n > 8 {
			t.Fatalf("attempt %d (%d points replayed): a chain log grew to %d ops", i, res.ReplayedPoints, n)
		}
	}
	if replayed < clSends {
		t.Fatalf("no attempt replayed the sends: at most %d points replayed", replayed)
	}
}

package psharp_test

// The controller's differential oracle. testdata/controller_golden.json was
// recorded from the channel-handshake controller (two unbuffered channel
// operations per scheduling point) immediately before it was replaced by the
// coroutine controller; every entry is a digest of what one strategy saw
// over a run of recycled iterations — encoded traces, scheduling-point
// counts, bugs, prune flags, fault statistics, detected races. The current
// controller must reproduce every entry both through a pooled TestHarness
// and through one-shot RunTest calls, so "the new controller simulates the
// old one step for step" is a committed fact rather than a claim.
//
// Regenerate (only when a deliberate semantic change moves the traces) with:
//
//	PSHARP_WRITE_GOLDENS=1 go test -run TestWriteControllerGolden .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

const controllerGoldenPath = "testdata/controller_golden.json"

const (
	goldenSeeds      = 8
	goldenIterations = 25
)

// goldenEntry is one recorded run: Digest folds every iteration's outcome;
// the remaining fields are a human-readable summary so a mismatch says what
// kind of thing moved.
type goldenEntry struct {
	Key        string `json:"key"`
	Iterations int    `json:"iterations"`
	Digest     string `json:"digest"`
	SP         int    `json:"sp"`
	Bugs       int    `json:"bugs"`
	Pruned     int    `json:"pruned,omitempty"`
	Interrupts int    `json:"interrupted,omitempty"`
	Races      int    `json:"races,omitempty"`
	// Faults sums the iterations' FaultStats; nil when nothing was injected.
	Faults *goldenFaults `json:"faults,omitempty"`
}

// goldenFaults is psharp.FaultStats without its JSON tags: the file was
// recorded when FaultStats had none, so its keys are the field names, each
// written even when zero.
type goldenFaults struct {
	Crashes, Restarts, Drops, Duplicates, Reorders int
}

// String renders the entry as its golden-file line.
func (e goldenEntry) String() string {
	line, _ := json.Marshal(e) // a struct of ints and strings cannot fail
	return string(line)
}

type goldenFile struct {
	Note    string        `json:"note"`
	Entries []goldenEntry `json:"entries"`
}

// encodeControllerGolden renders entries as testdata/controller_golden.json:
// one entry per line keeps the file diffable and a third of the size of an
// indented encoding.
func encodeControllerGolden(entries []goldenEntry) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"note": "Recorded by TestWriteControllerGolden; see controller_golden_test.go.", "entries": [`)
	for i, e := range entries {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		buf.WriteString(e.String())
	}
	buf.WriteString("\n]}\n")
	return buf.Bytes()
}

// goldenCase is one (program, strategy, seed, mode) cell. start returns a
// fresh strategy and a config factory; it is called once per run so the
// pooled and the one-shot pass each get their own strategy state and cache.
type goldenCase struct {
	key        string
	setup      func(*psharp.Runtime)
	iterations int
	start      func() (sct.Strategy, func(iter int) psharp.TestConfig)
}

// ownerCache mirrors the sct engine's state-cache ownership rule (first
// visitor owns a state; a different prefix at equal or greater depth is
// pruned, a shallower one steals ownership) so the prune path of the
// controller is part of the oracle. It is held by pointer: the controller
// can tell it is the cache of the previous iteration, so the recorded
// dpor+cache cells run with the prefix the strategy promises to repeat
// skipped.
type ownerCache struct {
	owners map[uint64]stateOwner
	visits int
}

type stateOwner struct {
	prefix uint64
	depth  int
}

func newOwnerCache() *ownerCache { return &ownerCache{owners: make(map[uint64]stateOwner)} }

func (c *ownerCache) Visit(state, prefix uint64, depth int) bool {
	c.visits++
	o, ok := c.owners[state]
	switch {
	case ok && o.prefix == prefix:
		return false
	case ok && o.depth <= depth:
		return true
	}
	c.owners[state] = stateOwner{prefix, depth}
	return false
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	base := func(b protocols.Benchmark) psharp.TestConfig {
		return psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
	}
	plain := func(b protocols.Benchmark, mk func() sct.Strategy, tweak func(*psharp.TestConfig)) func() (sct.Strategy, func(int) psharp.TestConfig) {
		return func() (sct.Strategy, func(int) psharp.TestConfig) {
			s := mk()
			cfg := base(b)
			cfg.Strategy = s
			if tweak != nil {
				tweak(&cfg)
			}
			return s, func(int) psharp.TestConfig { return cfg }
		}
	}

	// Every Table 2 protocol, buggy and correct, under the five strategy
	// families. The systematic strategies ignore seeds, so they get one
	// entry with the whole seeds×iterations budget instead.
	for _, b := range protocols.All() {
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			cases = append(cases,
				goldenCase{key: fmt.Sprintf("%s/random/seed=%d", b.ID(), seed), setup: b.Setup, iterations: goldenIterations,
					start: plain(b, func() sct.Strategy { return sct.NewRandom(seed) }, nil)},
				goldenCase{key: fmt.Sprintf("%s/pct/seed=%d", b.ID(), seed), setup: b.Setup, iterations: goldenIterations,
					start: plain(b, func() sct.Strategy { return sct.NewPCT(seed, 3, b.MaxSteps) }, nil)},
			)
		}
		cases = append(cases,
			goldenCase{key: b.ID() + "/dfs", setup: b.Setup, iterations: goldenSeeds * goldenIterations,
				start: plain(b, func() sct.Strategy { return sct.NewDFS() }, nil)},
			goldenCase{key: b.ID() + "/delay", setup: b.Setup, iterations: goldenSeeds * goldenIterations,
				start: plain(b, func() sct.Strategy { return sct.NewDelayBounding(0, 2, b.MaxSteps) }, nil)},
			goldenCase{key: b.ID() + "/dpor+cache", setup: b.Setup, iterations: goldenSeeds * goldenIterations,
				start: plain(b, func() sct.Strategy { return sct.NewDPOR() },
					func(cfg *psharp.TestConfig) { cfg.StateCache = newOwnerCache() })},
		)
	}

	// Liveness: fair lassos under the two cached searches, which show the
	// cache every point of a hot-monitor program and look for the lasso
	// first. The budget reaches the buggy variant's first lasso under dfs
	// (attempt 1 211).
	for _, b := range protocols.Liveness() {
		cases = append(cases,
			goldenCase{key: b.ID() + "/dfs+cache", setup: b.SetupMonitored(), iterations: 1300,
				start: plain(b, func() sct.Strategy { return sct.NewDFS() },
					func(cfg *psharp.TestConfig) { cfg.StateCache = newOwnerCache() })},
			goldenCase{key: b.ID() + "/dpor+cache", setup: b.SetupMonitored(), iterations: goldenSeeds * goldenIterations,
				start: plain(b, func() sct.Strategy { return sct.NewDPOR() },
					func(cfg *psharp.TestConfig) { cfg.StateCache = newOwnerCache() })},
		)
	}

	for seed := uint64(1); seed <= goldenSeeds; seed++ {
		// Liveness: fair lassos under the random scheduler.
		for _, b := range protocols.Liveness() {
			cases = append(cases, goldenCase{
				key: fmt.Sprintf("%s/random/seed=%d", b.ID(), seed), setup: b.SetupMonitored(), iterations: goldenIterations,
				start: plain(b, func() sct.Strategy { return sct.NewRandom(seed) }, nil),
			})
		}
		// Faults: crash (with and without restart, mailbox kept on even
		// seeds), drop, duplicate, reorder.
		for _, b := range protocols.FaultTolerant() {
			cases = append(cases, goldenCase{
				key: fmt.Sprintf("%s/faults/seed=%d", b.ID(), seed), setup: b.SetupMonitored(), iterations: goldenIterations,
				start: plain(b, func() sct.Strategy {
					return sct.NewFaultInjector(sct.NewRandom(seed), sct.FaultOptions{
						Budget: 4, Seed: seed, Horizon: 64, Immune: b.FaultImmune,
						Restart: true, PreserveMailbox: seed%2 == 0,
					})
				}, func(cfg *psharp.TestConfig) { cfg.Faults = &psharp.FaultConfig{Immune: b.FaultImmune} }),
			})
		}
		// CHESS-granularity scheduling points.
		for _, b := range []protocols.Benchmark{
			protocols.MustByName("TwoPhaseCommit", true), protocols.MustByName("Raft", true), protocols.MustByName("German", false),
		} {
			cases = append(cases, goldenCase{
				key: fmt.Sprintf("%s/chesslike/seed=%d", b.ID(), seed), setup: b.Setup, iterations: goldenIterations,
				start: plain(b, func() sct.Strategy { return sct.NewRandom(seed) },
					func(cfg *psharp.TestConfig) { cfg.ChessLike = true }),
			})
		}
		// Happens-before race detection, reporting and as a bug.
		for _, b := range []protocols.Benchmark{
			protocols.MustByName("BoundedAsync", false), protocols.MustByName("TwoPhaseCommit", true), protocols.MustByName("MultiPaxos", true),
		} {
			cases = append(cases, goldenCase{
				key: fmt.Sprintf("%s/racedetect/seed=%d", b.ID(), seed), setup: b.Setup, iterations: goldenIterations,
				start: plain(b, func() sct.Strategy { return sct.NewRandom(seed) },
					func(cfg *psharp.TestConfig) { cfg.RaceDetect = true }),
			})
		}
		b := protocols.MustByName("BoundedAsync", false)
		cases = append(cases, goldenCase{
			key: fmt.Sprintf("%s/raceasbug+chesslike/seed=%d", b.ID(), seed), setup: b.Setup, iterations: goldenIterations,
			start: plain(b, func() sct.Strategy { return sct.NewRandom(seed) },
				func(cfg *psharp.TestConfig) { cfg.RaceDetect, cfg.RaceAsBug, cfg.ChessLike = true, true, true }),
		})
		// Interrupt abandons the iteration mid-schedule after a seeded,
		// per-iteration number of polls: teardown with machines blocked,
		// never started and parked mid-handler.
		tpc := protocols.MustByName("TwoPhaseCommit", false)
		cases = append(cases, goldenCase{
			key: fmt.Sprintf("%s/interrupt/seed=%d", tpc.ID(), seed), setup: tpc.Setup, iterations: goldenIterations,
			start: func() (sct.Strategy, func(int) psharp.TestConfig) {
				s := sct.NewRandom(seed)
				return s, func(iter int) psharp.TestConfig {
					polls := 0
					limit := 1 + (int(seed)*7+iter*3)%40
					cfg := base(tpc)
					cfg.Strategy = s
					cfg.Interrupt = func() bool { polls++; return polls > limit }
					return cfg
				}
			},
		})
	}
	return cases
}

// goldenReplayed sums IterationResult.ReplayedPoints over every golden run:
// the dpor+cache cells reproduce a recording made with every point hashed
// and visited, which pins the skip of the repeated prefix only if it
// engaged.
var goldenReplayed atomic.Int64

// runGoldenCase executes one case and digests it. run is the iteration
// primitive: a pooled harness's Run or one-shot RunTest.
func runGoldenCase(t *testing.T, gc goldenCase, run func(psharp.TestConfig) psharp.IterationResult) goldenEntry {
	t.Helper()
	e := goldenEntry{Key: gc.key}
	var faults psharp.FaultStats
	digest := fnv.New64a()
	strategy, cfgFor := gc.start()
	for iter := 0; iter < gc.iterations; iter++ {
		if !strategy.PrepareIteration(iter) {
			break // systematic strategy exhausted its tree
		}
		res := run(cfgFor(iter))
		goldenReplayed.Add(int64(res.ReplayedPoints))
		th := fnv.New64a()
		if err := res.Trace.Encode(th); err != nil {
			t.Fatalf("%s: encoding trace of iteration %d: %v", gc.key, iter, err)
		}
		bug := "-"
		if b := res.Bug; b != nil {
			bug = fmt.Sprintf("%d|%s|%s|%s|%s", b.Kind, b.Machine, b.State, b.Monitor, b.Message)
			e.Bugs++
		}
		// The detector reports races in map order; the set is the oracle.
		races := append([]string(nil), res.Races...)
		sort.Strings(races)
		fmt.Fprintf(digest, "%016x sp=%d m=%d pruned=%v bound=%v intr=%v bug=%s faults=%+v races=%q\n",
			th.Sum64(), res.SchedulingPoints, res.Machines, res.Pruned, res.BoundReached, res.Interrupted,
			bug, res.Faults, races)
		e.Iterations++
		e.SP += res.SchedulingPoints
		e.Races += len(res.Races)
		faults.Add(res.Faults)
		if res.Pruned {
			e.Pruned++
		}
		if res.Interrupted {
			e.Interrupts++
		}
	}
	e.Digest = fmt.Sprintf("%016x", digest.Sum64())
	if faults != (psharp.FaultStats{}) {
		f := goldenFaults(faults)
		e.Faults = &f
	}
	return e
}

func runGoldenPooled(t *testing.T, gc goldenCase) goldenEntry {
	h := psharp.NewTestHarness(gc.setup)
	defer h.Close()
	return runGoldenCase(t, gc, h.Run)
}

func runGoldenOneShot(t *testing.T, gc goldenCase) goldenEntry {
	return runGoldenCase(t, gc, func(cfg psharp.TestConfig) psharp.IterationResult {
		return psharp.RunTest(gc.setup, cfg)
	})
}

func TestWriteControllerGolden(t *testing.T) {
	if os.Getenv("PSHARP_WRITE_GOLDENS") == "" {
		t.Skip("set PSHARP_WRITE_GOLDENS=1 to re-record testdata/controller_golden.json")
	}
	var entries []goldenEntry
	for _, gc := range goldenCases() {
		entries = append(entries, runGoldenPooled(t, gc))
	}
	if err := os.MkdirAll(filepath.Dir(controllerGoldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(controllerGoldenPath, encodeControllerGolden(entries), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestControllerGoldenRoundTrip: the writer writes what the file holds.
// Every committed entry, decoded and re-encoded by the writer's encoder,
// gives the committed bytes back, so re-recording some cells rewrites only
// the lines of the cells that moved.
func TestControllerGoldenRoundTrip(t *testing.T) {
	data, err := os.ReadFile(controllerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		t.Fatal(err)
	}
	got := encodeControllerGolden(gf.Entries)
	if bytes.Equal(got, data) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(data, []byte("\n"))
	differ := 0
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			if differ++; differ <= 3 {
				t.Errorf("line %d re-encodes as\n%s\nthe file holds\n%s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	t.Fatalf("%s does not round-trip: %d of %d lines differ (%d lines re-encoded)",
		controllerGoldenPath, differ, len(wantLines), len(gotLines))
}

// TestControllerGolden replays every recorded cell through the pooled
// harness and through one-shot RunTest and requires both to reproduce the
// recorded digest. It is also the drift guard: the committed file must list
// exactly the cells the generator enumerates, in order.
func TestControllerGolden(t *testing.T) {
	data, err := os.ReadFile(controllerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases()
	if len(gf.Entries) != len(cases) {
		t.Fatalf("%s lists %d entries, the generator enumerates %d; re-record with PSHARP_WRITE_GOLDENS=1",
			controllerGoldenPath, len(gf.Entries), len(cases))
	}
	var total goldenEntry
	var f psharp.FaultStats
	for i, gc := range cases {
		want := gf.Entries[i]
		if want.Key != gc.key {
			t.Fatalf("entry %d is %q, the generator enumerates %q; re-record with PSHARP_WRITE_GOLDENS=1", i, want.Key, gc.key)
		}
		total.Bugs += want.Bugs
		total.Pruned += want.Pruned
		total.Interrupts += want.Interrupts
		total.Races += want.Races
		if want.Faults != nil {
			f.Add(psharp.FaultStats(*want.Faults))
		}
	}
	// Cells are independent, so they are checked on parallel shards: it
	// halves the wall time under -race, and it makes harnesses on different
	// goroutines trade parked coroutines through the process-wide reserve.
	const shards = 4
	goldenReplayed.Store(0)
	t.Cleanup(func() { // runs once the parallel shards are done
		if !t.Failed() && goldenReplayed.Load() == 0 {
			t.Error("no dpor+cache cell skipped a repeated prefix: the recorded oracle does not exercise the skip")
		}
	})
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := shard; i < len(cases); i += shards {
				gc, want := cases[i], gf.Entries[i]
				if got := runGoldenPooled(t, gc); !reflect.DeepEqual(got, want) {
					t.Errorf("%s (pooled harness) diverged from the recorded controller:\n got %v\nwant %v", gc.key, got, want)
				}
				if got := runGoldenOneShot(t, gc); !reflect.DeepEqual(got, want) {
					t.Errorf("%s (one-shot RunTest) diverged from the recorded controller:\n got %v\nwant %v", gc.key, got, want)
				}
			}
		})
	}
	// The oracle is only as good as what it exercises: every controller
	// path the rewrite touched must actually occur in the recorded corpus.
	if total.Bugs == 0 || total.Pruned == 0 || total.Interrupts == 0 || total.Races == 0 ||
		f.Crashes == 0 || f.Restarts == 0 || f.Crashes == f.Restarts || f.Drops == 0 || f.Duplicates == 0 || f.Reorders == 0 {
		t.Errorf("recorded corpus misses a controller path: %+v %+v", total, f)
	}
}

package sct_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/journal"
	"github.com/psharp-go/psharp/sct"
)

// chancySetup is fan-in plus a 1-in-8 assertion bug, so equivalence checks
// cover buggy-iteration counting as well as fingerprints.
func chancySetup(r *psharp.Runtime) {
	r.MustRegister("Chancy", func() psharp.Machine { return &chancy{} })
	r.MustCreate("Chancy", nil)
	fanInSetup(2)(r)
}

type chancy struct{ psharp.StaticBase }

func (*chancy) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		a, b, c := ctx.RandomBool(), ctx.RandomBool(), ctx.RandomBool()
		ctx.Assert(!(a && b && c), "the 1-in-8 combination")
	})
}

func campaignMeta(workers int) journal.Meta {
	return journal.Meta{
		Benchmark: "Chancy", Strategy: "random", Seed: 7,
		Workers: workers, ShardCount: 1, MaxSteps: 200,
	}
}

// journaledFingerprints reopens a closed campaign directory and returns its
// recovered fingerprint set.
func journaledFingerprints(t *testing.T, dir string, meta journal.Meta) map[uint64]bool {
	t.Helper()
	c, err := journal.Resume(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	set := make(map[uint64]bool)
	for _, fp := range c.Fingerprints() {
		set[fp] = true
	}
	return set
}

func runJournaled(t *testing.T, dir string, workers, iterations int, resume bool) sct.ParallelReport {
	t.Helper()
	return runCampaign(t, dir, campaignMeta(workers), chancySetup, sct.ParallelOptions{
		Options: sct.Options{Strategy: sct.NewRandom(7), Iterations: iterations, MaxSteps: 200},
		Workers: workers,
	}, resume)
}

// runCampaign runs opts against a journal in dir, created afresh or resumed.
func runCampaign(t *testing.T, dir string, meta journal.Meta, setup func(*psharp.Runtime), opts sct.ParallelOptions, resume bool) sct.ParallelReport {
	t.Helper()
	open := journal.Create
	if resume {
		open = journal.Resume
	}
	c, err := open(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = c
	out := sct.RunParallel(setup, opts)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("journal degraded: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalResumeEquivalence: a campaign split into two budget slices
// via -resume must converge on
// exactly the state of one uninterrupted run — same cumulative counters,
// same distinct-fingerprint set — and the resumed slice must re-execute
// zero journal-covered schedules. The inputs cover each way a worker's
// position is journaled: the iteration count alone (random), a fault
// injector delegating the cursor to its inner strategy, a portfolio
// where a depth-first frontier sits beside a count-only worker, and a
// delay-bounded frontier with its bound.
func TestJournalResumeEquivalence(t *testing.T) {
	const workers = 2
	ft := protocols.MustByName("TwoPhaseCommitFT", true)
	tpc := protocols.MustByName("TwoPhaseCommit", false)
	for _, tc := range []struct {
		name       string
		setup      func(*psharp.Runtime)
		meta       journal.Meta
		half, full int
		// opts builds the campaign's fresh strategies, without a budget.
		opts func() sct.ParallelOptions
	}{
		{
			name: "random", setup: chancySetup, meta: campaignMeta(workers), half: 80, full: 200,
			opts: func() sct.ParallelOptions {
				return sct.ParallelOptions{Options: sct.Options{Strategy: sct.NewRandom(7), MaxSteps: 200}, Workers: workers}
			},
		},
		{
			name: "faults", setup: ft.Setup, half: 150, full: 300,
			meta: journal.Meta{Benchmark: ft.ID(), Strategy: "random", Seed: 5, Workers: workers, ShardCount: 1, MaxSteps: ft.MaxSteps, FaultBudget: 2},
			opts: func() sct.ParallelOptions {
				return sct.ParallelOptions{Options: sct.Options{
					Strategy: sct.NewRandom(5), MaxSteps: ft.MaxSteps, LivelockAsBug: ft.LivelockAsBug,
					Faults: sct.FaultOptions{Budget: 2, Seed: 5, Immune: ft.FaultImmune, Restart: true},
				}, Workers: workers}
			},
		},
		{
			name: "portfolio", setup: tpc.Setup, half: 200, full: 400,
			meta: journal.Meta{Benchmark: tpc.ID(), Strategy: "portfolio:random,dfs", Seed: 1, Workers: workers, ShardCount: 1, MaxSteps: tpc.MaxSteps},
			opts: func() sct.ParallelOptions {
				pf, err := sct.ParsePortfolio("random,dfs", 1, tpc.MaxSteps, -1)
				if err != nil {
					t.Fatal(err)
				}
				return sct.ParallelOptions{Options: sct.Options{MaxSteps: tpc.MaxSteps, LivelockAsBug: tpc.LivelockAsBug}, Workers: workers, Portfolio: pf}
			},
		},
		{
			name: "delay", setup: tpc.Setup, half: 200, full: 400,
			meta: journal.Meta{Benchmark: tpc.ID(), Strategy: "delay", Seed: 1, Workers: workers, ShardCount: 1, MaxSteps: tpc.MaxSteps},
			opts: func() sct.ParallelOptions {
				return sct.ParallelOptions{Options: sct.Options{
					Strategy: sct.NewDelayBounding(1, 2, tpc.MaxSteps), MaxSteps: tpc.MaxSteps, LivelockAsBug: tpc.LivelockAsBug,
				}, Workers: workers}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dir string, budget int, resume bool) sct.ParallelReport {
				opts := tc.opts()
				opts.Iterations = budget
				return runCampaign(t, dir, tc.meta, tc.setup, opts, resume)
			}
			splitDir := filepath.Join(t.TempDir(), "split")
			soloDir := filepath.Join(t.TempDir(), "solo")

			first := run(splitDir, tc.half, false)
			if first.Report.Iterations != tc.half {
				t.Fatalf("first slice ran %d iterations, want %d", first.Report.Iterations, tc.half)
			}
			second := run(splitDir, tc.full, true)
			solo := run(soloDir, tc.full, false)

			if second.Report.Iterations != tc.full {
				t.Fatalf("resumed campaign totals %d iterations, want %d", second.Report.Iterations, tc.full)
			}
			// Zero re-executed schedules: the resumed process itself ran exactly
			// the remaining budget (per-worker sub-reports count this run only).
			ranNow := 0
			for _, w := range second.Workers {
				ranNow += w.Report.Iterations
			}
			if ranNow != tc.full-tc.half {
				t.Fatalf("resumed process executed %d schedules, want exactly the remaining %d", ranNow, tc.full-tc.half)
			}
			split, whole := second.Tally, solo.Tally
			if opts := tc.opts(); opts.Faults.Budget > 0 && whole.Faults == (psharp.FaultStats{}) {
				t.Fatalf("no fault was injected: the input does not exercise the injector")
			}
			// A resumed depth-first worker starts its first attempt from the
			// program's start: the checkpoints it would have resumed from
			// lived in the first process. Every other count is the schedules'.
			if split.RestoredPoints > whole.RestoredPoints {
				t.Fatalf("the resumed campaign restored more points than the solo run: %d > %d", split.RestoredPoints, whole.RestoredPoints)
			}
			split.RestoredPoints, whole.RestoredPoints = 0, 0
			if split != whole {
				t.Fatalf("tallies diverged:\nsplit %+v\n solo %+v", second.Tally, solo.Tally)
			}
			if a, b := second.Report.DistinctSchedules, solo.Report.DistinctSchedules; a != b {
				t.Fatalf("distinct schedules diverged: split %d vs solo %d", a, b)
			}
			splitFPs := journaledFingerprints(t, splitDir, tc.meta)
			soloFPs := journaledFingerprints(t, soloDir, tc.meta)
			if len(splitFPs) != len(soloFPs) {
				t.Fatalf("fingerprint sets differ in size: %d vs %d", len(splitFPs), len(soloFPs))
			}
			for fp := range soloFPs {
				if !splitFPs[fp] {
					t.Fatalf("fingerprint %x found solo but missing from the split campaign", fp)
				}
			}
			t.Logf("%s; restored %d split, %d solo", second.Report.String(), second.RestoredPoints, solo.RestoredPoints)
		})
	}
}

// TestJournalResumeEquivalenceStateCache is the same split under dfs with
// the state cache, where most of the budget goes to pruned iterations: the
// resumed campaign's tally is the first process's ⊕ the second's own — every
// counter, not only the ones the journal record used to carry — so the
// budget consumed is Iterations + PrunedIterations and every share is a ratio
// of two campaign-wide numbers; journal.ReadState says the same.
func TestJournalResumeEquivalenceStateCache(t *testing.T) {
	const half, full = 150, 300
	b := protocols.MustByName("TwoPhaseCommit", false)
	dir := filepath.Join(t.TempDir(), "split")
	meta := journal.Meta{Benchmark: b.ID(), Strategy: "dfs", Workers: 1, ShardCount: 1, MaxSteps: b.MaxSteps}
	run := func(budget int, open func(string, journal.Meta, journal.Options) (*journal.Campaign, error)) sct.ParallelReport {
		c, err := open(dir, meta, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := sct.RunParallel(b.Setup, sct.ParallelOptions{
			Options: sct.Options{Strategy: sct.NewDFS(), Iterations: budget, MaxSteps: b.MaxSteps, StateCache: true, Journal: c},
			Workers: 1,
		})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run(half, journal.Create)
	second := run(full, journal.Resume)

	want := first.Tally
	want.Merge(second.Workers[0].Report.Tally)
	if second.Tally != want {
		t.Fatalf("resumed tally is not the first process's ⊕ the second's own:\n got %+v\nwant %+v", second.Tally, want)
	}
	if first.PrunedIterations == 0 || second.Workers[0].Report.PrunedIterations == 0 {
		t.Fatalf("a process pruned nothing: the split does not exercise the cache (%+v, %+v)", first.Tally, second.Workers[0].Report.Tally)
	}
	if got := second.Iterations + second.PrunedIterations; got != full {
		t.Fatalf("resumed campaign consumed %d+%d schedules of a budget of %d", second.Iterations, second.PrunedIterations, full)
	}
	if share := second.Shares().RestoredShare; share <= 0 || share > 1 {
		t.Fatalf("restored share %v of a campaign-wide tally %+v", share, second.Tally)
	}
	st, err := journal.ReadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Counters.Iterations + st.Counters.PrunedIterations; got != full || st.Counters.RestoredPoints != second.RestoredPoints {
		t.Fatalf("journal.ReadState: %+v, the report %+v", st.Counters, second.Tally)
	}
}

// TestJournalResumesTimedOutCampaign: a time budget journals like an
// iteration budget. A two-worker campaign cut short by its Timeout is
// interrupted with budget left; resuming it runs exactly the remainder and
// lands on the uninterrupted run's buggy and distinct-schedule counts.
func TestJournalResumesTimedOutCampaign(t *testing.T) {
	const workers = 2
	dir := filepath.Join(t.TempDir(), "timed")
	c, err := journal.Create(dir, campaignMeta(workers), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := sct.RunParallel(chancySetup, sct.ParallelOptions{
		Options: sct.Options{
			Strategy:   sct.NewRandom(7),
			Iterations: 1 << 30,
			MaxSteps:   200,
			Timeout:    20 * time.Millisecond,
			Journal:    c,
		},
		Workers: workers,
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted {
		t.Fatalf("timed-out campaign not marked interrupted: %s", first.Report.String())
	}
	// Leave both workers a remainder of their shard.
	full := 0
	for _, w := range first.Workers {
		full = max(full, workers*w.Report.Iterations)
	}
	full += 200

	second := runJournaled(t, dir, workers, full, true)
	solo := runJournaled(t, filepath.Join(t.TempDir(), "solo"), workers, full, false)
	ranNow := 0
	for _, w := range second.Workers {
		ranNow += w.Report.Iterations
	}
	if second.Interrupted || second.Iterations != full || ranNow != full-first.Iterations {
		t.Fatalf("resumed campaign: %d iterations, %d of them now (interrupted=%v); want %d, %d now",
			second.Iterations, ranNow, second.Interrupted, full, full-first.Iterations)
	}
	if a, b := second.BuggyIterations, solo.BuggyIterations; a != b {
		t.Fatalf("buggy iterations diverged: resumed %d vs solo %d", a, b)
	}
	if a, b := second.DistinctSchedules, solo.DistinctSchedules; a != b {
		t.Fatalf("distinct schedules diverged: resumed %d vs solo %d", a, b)
	}
}

// TestJournalKillAtRandomRecordResume truncates the shard file at random
// byte offsets — simulating SIGKILL at arbitrary append points — and checks
// every resumed campaign still converges on the uninterrupted run's
// fingerprint set. Lost tail records may only cause re-execution (counters
// can overshoot), never lost or phantom schedules.
func TestJournalKillAtRandomRecordResume(t *testing.T) {
	const workers, half, full = 2, 80, 200
	meta := campaignMeta(workers)

	baseDir := filepath.Join(t.TempDir(), "base")
	runJournaled(t, baseDir, workers, half, false)
	shard := journal.ShardFileName(0, 1)
	img, err := os.ReadFile(filepath.Join(baseDir, shard))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(baseDir, journal.ManifestName))
	if err != nil {
		t.Fatal(err)
	}

	soloDir := filepath.Join(t.TempDir(), "solo")
	runJournaled(t, soloDir, workers, full, false)
	soloFPs := journaledFingerprints(t, soloDir, meta)

	// Keep the meta record (without it the shard restarts empty, which the
	// CLI treats as a fresh shard rather than a kill survivor).
	minCut := 16 + 16 + 300 // header + frame + generous bound on the meta JSON
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		cut := minCut + rng.Intn(len(img)-minCut)
		dir := filepath.Join(t.TempDir(), "killed")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journal.ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shard), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		out := runJournaled(t, dir, workers, full, true)
		if out.Report.DistinctSchedules != len(soloFPs) {
			t.Fatalf("cut at %d: resumed to %d distinct schedules, want %d",
				cut, out.Report.DistinctSchedules, len(soloFPs))
		}
		got := journaledFingerprints(t, dir, meta)
		for fp := range soloFPs {
			if !got[fp] {
				t.Fatalf("cut at %d: fingerprint %x lost", cut, fp)
			}
		}
		for fp := range got {
			if !soloFPs[fp] {
				t.Fatalf("cut at %d: phantom fingerprint %x", cut, fp)
			}
		}
	}
}

// TestJournalDFSCursorResume checks the one cursor-carrying strategy: a DFS
// enumeration split across a resume must visit exactly the schedules of an
// uninterrupted enumeration, ending exhausted at the same count.
func TestJournalDFSCursorResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dfs")
	meta := journal.Meta{Benchmark: "FanIn3", Strategy: "dfs", Seed: 0,
		Workers: 1, ShardCount: 1, MaxSteps: 1000}

	solo := sct.Run(fanInSetup(3), sct.Options{
		Strategy: sct.NewDFS(), Iterations: 1_000_000, MaxSteps: 1000,
	})
	if !solo.Exhausted {
		t.Fatal("baseline DFS did not exhaust")
	}

	c, err := journal.Create(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	firstBudget := solo.Iterations / 3
	first := sct.Run(fanInSetup(3), sct.Options{
		Strategy: sct.NewDFS(), Iterations: firstBudget, MaxSteps: 1000,
		Journal: c,
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if first.Exhausted || first.Iterations != firstBudget {
		t.Fatalf("first slice: %s", first.String())
	}

	r, err := journal.Resume(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rest := sct.Run(fanInSetup(3), sct.Options{
		Strategy: sct.NewDFS(), Iterations: 1_000_000, MaxSteps: 1000,
		Journal: r,
	})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !rest.Exhausted {
		t.Fatalf("resumed DFS did not exhaust: %s", rest.String())
	}
	if rest.Iterations != solo.Iterations {
		t.Fatalf("resumed DFS visited %d schedules total, solo visited %d", rest.Iterations, solo.Iterations)
	}
	if rest.DistinctSchedules != solo.DistinctSchedules {
		t.Fatalf("resumed DFS found %d distinct, solo %d", rest.DistinctSchedules, solo.DistinctSchedules)
	}
}

// TestJournalUnreadableCursorIsAnError: a journal whose cursor the worker's
// strategy cannot load — here one in the layout DFS wrote before cursor
// version 2, as a campaign journaled by an older build holds — ends the run
// before its first iteration with Report.Err saying who can finish the
// campaign. It used to be a panic out of RunParallel.
func TestJournalUnreadableCursorIsAnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v1")
	meta := journal.Meta{Benchmark: "FanIn3", Strategy: "dfs", Workers: 1, ShardCount: 1, MaxSteps: 1000}
	c, err := journal.Create(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Version 1, no flags, shard 0 of 1, an empty stack.
	c.Advance(0, 10, []byte{1, 0, 0, 1, 0}, nil)

	for _, s := range []sct.Strategy{sct.NewDFS(), sct.NewDPOR(), sct.NewRandom(1)} {
		rep := sct.RunParallel(fanInSetup(3), sct.ParallelOptions{Workers: 1, Options: sct.Options{
			Strategy: s, Iterations: 100, MaxSteps: 1000, Journal: c,
		}})
		if rep.Err == nil || rep.Iterations != 0 || len(rep.Workers) != 0 {
			t.Fatalf("%T: want an error and no iteration, got %s (err %v)", s, rep.Report.String(), rep.Err)
		}
		want := "another cursor format and must be finished by that build or started afresh"
		if _, seeded := s.(*sct.Random); seeded {
			want = "cannot load cursors"
		}
		if !strings.Contains(rep.Err.Error(), want) {
			t.Errorf("%T: error %q does not say %q", s, rep.Err, want)
		}
	}
	if completed, _, _ := c.Cursor(0); completed != 10 {
		t.Errorf("the refused runs moved the journaled position to %d", completed)
	}
}

// TestStopChannelInterruptsRun covers cooperative cancellation: closing
// Options.Stop ends the run early with Interrupted set, without a journal
// in the picture.
func TestStopChannelInterruptsRun(t *testing.T) {
	stop := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(stop)
	}()
	rep := sct.Run(fanInSetup(3), sct.Options{
		Strategy:   sct.NewRandom(1),
		Iterations: 1 << 30,
		MaxSteps:   1000,
		Stop:       stop,
	})
	if !rep.Interrupted {
		t.Fatalf("stopped run not marked interrupted: %s", rep.String())
	}
	if rep.Iterations >= 1<<30 {
		t.Fatal("stopped run consumed the whole budget")
	}
}

// TestTimeoutMarksInterrupted: a hard deadline with budget left is an
// interruption (satellite 1's marker flows from here into reports).
func TestTimeoutMarksInterrupted(t *testing.T) {
	rep := sct.Run(fanInSetup(3), sct.Options{
		Strategy:   sct.NewRandom(1),
		Iterations: 1 << 30,
		MaxSteps:   1000,
		Timeout:    20 * time.Millisecond,
	})
	if !rep.Interrupted {
		t.Fatalf("timed-out run not marked interrupted: %s", rep.String())
	}
}

// TestCompletedRunNotInterrupted guards the negative: running the budget to
// the end, or exhausting the space, is not an interruption.
func TestCompletedRunNotInterrupted(t *testing.T) {
	rep := sct.Run(fanInSetup(2), sct.Options{
		Strategy: sct.NewRandom(1), Iterations: 20, MaxSteps: 1000,
	})
	if rep.Interrupted {
		t.Fatalf("completed run marked interrupted: %s", rep.String())
	}
	rep = sct.Run(fanInSetup(2), sct.Options{
		Strategy: sct.NewDFS(), Iterations: 1_000_000, MaxSteps: 1000,
		Timeout: time.Hour,
	})
	if !rep.Exhausted || rep.Interrupted {
		t.Fatalf("exhausted run marked interrupted: %s", rep.String())
	}
}

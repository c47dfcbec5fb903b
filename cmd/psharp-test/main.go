// Command psharp-test runs systematic concurrency testing on the built-in
// protocol benchmarks.
//
// Usage:
//
//	psharp-test -bench Raft -buggy -strategy random -iterations 10000
//	psharp-test -bench Raft -buggy -monitors -trace-out raft.trace
//	psharp-test -bench Raft -buggy -monitors -replay raft.trace
//	psharp-test -bench FairResponder -buggy -liveness
//	psharp-test -bench TwoPhaseCommitFT -buggy -monitors -faults 2
//	psharp-test -bench TwoPhaseCommit -buggy -strategy dpor -state-cache
//	psharp-test -bench Raft -buggy -parallel 8 [-timeout 1m]
//	psharp-test -bench Raft -buggy -parallel 8 -portfolio default
//	psharp-test -bench Raft -buggy -report-out campaign.json [-http :6060]
//	psharp-test -bench Raft -buggy -journal camp/ [-resume] [-shard 2/4]
//	psharp-test -psl Raft -racy -iterations 200 [-interp walk]
//	psharp-test -psl Raft -disasm
//	psharp-test -list
//
// -psl switches to the .psl front end: the named Table 1 benchmark is
// loaded from the embedded corpus and explored through the interp package
// with the race detector on. -interp selects the evaluator (the bytecode
// VM by default; walk is the reference tree-walker — see the interp
// package docs, "Bytecode execution") and -disasm prints the compiled
// bytecode listing instead of running.
//
// -monitors attaches the benchmark's specification monitors (global safety
// invariants such as TwoPhaseCommit atomicity or Raft election safety);
// -liveness additionally enables hot-state temperature tracking and
// defaults the strategy to the fair random scheduler, which is what makes
// liveness verdicts sound — see the sct package docs.
//
// -faults N gives every schedule a budget of N injected faults — machine
// crashes (with restart through the creation payload), message drops,
// duplications and reorderings — chosen by a PCT-style injection plan
// layered over the selected strategy (see psharp's "Injecting faults"
// docs). The [faults] benchmarks in -list are crash-tolerant protocols
// whose buggy variants hide bugs only a fault can expose; their stable-
// storage machines are automatically immune. Fault decisions are recorded
// in the trace, so -trace-out and -replay reproduce crash schedules
// exactly.
//
// -strategy dpor selects dynamic partial-order reduction with sleep sets: a
// systematic enumerator like dfs that skips schedules differing only in the
// order of independent steps. -strategy delay is dfs within 2 delays of round
// robin, fewest delays first. -state-cache (with dfs or dpor) adds a hashed
// global-state cache that cuts schedules short when they revisit an
// already-covered global state; pruned schedules are reported separately from
// explored ones and never inflate throughput numbers. A program whose machines
// keep state no hash stands for — a live func, chan or unsafe.Pointer field —
// ends a -state-cache run at its first scheduling point: the error names the
// machine type and the field, and the exit status is 2, as for any
// configuration that cannot be run. Under dfs, dpor and delay, with or without
// the cache, a schedule may start from a checkpoint of the previous one
// instead of from the program's setup (restored_points in the summary); a
// program run this way must register pure machine factories and keep its state
// in machines, monitors and events — see psharp.NewTestHarness.
//
// Which flags combine is not decided here: the flags spell an
// sct.ParallelOptions, and what its Validate refuses exits 2 with that
// error — see the sct package docs, "Option compatibility".
//
// # Observability
//
// -progress-every N prints a progress line to stderr every N iterations of
// each worker, with campaign-global counters; -progress-jsonl FILE streams
// the same snapshots as JSON lines instead ("-" for stdout). -http ADDR
// serves /debug/vars (the live telemetry snapshot) and /debug/pprof/ for
// the duration of the run.
//
// # Resumable campaigns
//
// -journal DIR makes the campaign durable: workers append their schedule
// fingerprints, strategy cursors and counters to a crash-safe append-only
// journal (see the journal package), so a run killed at any point — SIGKILL
// included — can continue with -resume instead of starting over. A resumed
// run skips every journaled schedule, restarts each worker's seed stream at
// its cursor, and reports the campaign, not itself: every counter of the
// summary line and of -report-out covers all the runs so far ("iterations"
// plus "pruned_iterations" is the budget consumed), except "distinct_states"
// — the state cache is not journaled. Growing -iterations across resumes
// splits one budget over several invocations. -shard i/n
// (1-based) lets n processes share one journal directory and jointly
// explore the exact population a single n×-parallel process would.
// -journal-sync trades durability against fsync traffic.
//
// SIGINT/SIGTERM stop the run cooperatively: in-flight schedules finish,
// the journal gets a final checkpoint, and -report-out/-trace-out are still
// written (the report carries an "interrupted" marker, as it does when the
// hard -timeout expires). A second signal exits immediately.
//
// -report-out FILE writes a versioned campaign report after the run; that
// it and -trace-out can be written is checked before the run. For example,
//
//	psharp-test -bench TwoPhaseCommit -buggy -monitors -keep-going \
//	    -iterations 5000 -parallel 4 -report-out campaign.json
//
// explores 5000 schedules across 4 workers and leaves campaign.json
// holding the merged result, a per-strategy breakdown, the schedule-depth
// histogram, the (machine, state, event) transitions covered, a bug census
// by kind, and the coverage growth curve over wall-clock time — the
// artifact CI archives per corpus run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/journal"
	"github.com/psharp-go/psharp/obs"
	"github.com/psharp-go/psharp/sct"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body, separated from main so the trace round-trip and
// flag-handling tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psharp-test", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available benchmarks (the liveness suite is marked)")
	bench := fs.String("bench", "", "benchmark name (see -list)")
	buggy := fs.Bool("buggy", false, "use the buggy variant")
	strategy := fs.String("strategy", "", "random | fair | dfs | dpor | pct | delay (dfs within 2 delays of round robin); default random, fair under -liveness")
	iterations := fs.Int("iterations", 10000, "schedule budget")
	timeout := fs.Duration("timeout", 5*time.Minute, "time budget (hard deadline)")
	seed := fs.Uint64("seed", 1, "seed for randomized strategies")
	keepGoing := fs.Bool("keep-going", false, "keep exploring after the first bug (reports %buggy)")
	monitors := fs.Bool("monitors", false, "attach the benchmark's specification monitors")
	liveness := fs.Bool("liveness", false, "enable hot-state liveness checking (implies -monitors; defaults -strategy to fair)")
	temperature := fs.Int("temperature", 0, "liveness temperature threshold in scheduling decisions (default: the benchmark's recommendation)")
	fairPrefix := fs.Int("fair-prefix", -1, "random-prefix length of the fair strategy and of portfolio fair members (default: the benchmark's recommendation, else maxsteps/2)")
	traceOut := fs.String("trace-out", "", "write the first buggy schedule trace to this file (psharp.Trace.Encode format)")
	faults := fs.Int("faults", 0, "per-schedule fault-injection budget: crashes (with restart), drops, duplicates, reorders as scheduler decisions (0 = off; see -list's [faults] benchmarks)")
	stateCache := fs.Bool("state-cache", false, "hashed global-state cache: cut short schedules that revisit an already-covered global state (requires -strategy dfs or dpor; pruned schedules are reported separately)")
	faultHorizon := fs.Int("fault-horizon", 0, "fault-point horizon the budget is spread over (0 = sct.DefaultFaultHorizon)")
	replay := fs.String("replay", "", "replay a trace file against the benchmark instead of exploring; exits 0 if the bug reproduces")
	parallel := fs.Int("parallel", 1, "number of exploration workers (0 = GOMAXPROCS)")
	portfolio := fs.String("portfolio", "", "comma-separated worker portfolio, e.g. 'random,fair,pct,delay,dfs' or 'default' (implies -parallel; excludes -strategy)")
	verbose := fs.Bool("v", false, "print per-worker sub-reports for parallel runs")
	progressEvery := fs.Int("progress-every", 0, "emit a progress snapshot every N iterations of each worker (0 = off)")
	progressJSONL := fs.String("progress-jsonl", "", "stream progress snapshots as JSON lines to this file instead of human text ('-' for stdout; defaults -progress-every to 1000)")
	reportOut := fs.String("report-out", "", "write a versioned campaign report (coverage, growth curves, bug census) to this file; see the worked example in the command docs")
	journalDir := fs.String("journal", "", "crash-safe campaign journal directory: schedule fingerprints, strategy cursors and counters are appended durably so a killed run can continue with -resume")
	resumeRun := fs.Bool("resume", false, "resume the journaled campaign in -journal: skip already-covered schedules, continue each worker's stream at its cursor, report campaign-cumulative counters (explored and pruned schedules alike)")
	shardSpec := fs.String("shard", "", "run one shard i/n (1-based, e.g. 2/4) of a multi-process campaign; all n processes share the -journal directory and jointly explore one population")
	journalSync := fs.Int("journal-sync", 0, "journal fsync cadence in records (0 = default 64; 1 = fsync every record, maximally durable; -1 = fsync only at checkpoints and exit)")
	httpAddr := fs.String("http", "", "serve /debug/vars (live telemetry) and /debug/pprof/ on this address for the duration of the run, e.g. :6060 or 127.0.0.1:0")
	psl := fs.String("psl", "", "explore a Table 1 .psl benchmark through the interp package instead of a Go-native protocol (uses -racy, -interp, -disasm, -iterations, -seed)")
	racy := fs.Bool("racy", false, "with -psl: use the racy source variant")
	interpEngine := fs.String("interp", "bytecode", "with -psl: evaluator engine, bytecode or walk")
	disasm := fs.Bool("disasm", false, "with -psl: print the compiled bytecode listing (interp.Disassemble) and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, b := range protocols.All() {
			fmt.Fprintln(stdout, b.ID())
		}
		for _, b := range protocols.Liveness() {
			fmt.Fprintf(stdout, "%s [liveness]\n", b.ID())
		}
		for _, b := range protocols.FaultTolerant() {
			fmt.Fprintf(stdout, "%s [faults]\n", b.ID())
		}
		for _, n := range benchsrc.SortedNames() {
			fmt.Fprintf(stdout, "%s [psl]\n", n)
		}
		return 0
	}
	// -psl is a separate front end, and a portfolio names every worker's
	// strategy: refuse the flags the chosen mode never reads instead of
	// ignoring them.
	parallelSet, stray := false, ""
	fs.Visit(func(f *flag.Flag) {
		parallelSet = parallelSet || f.Name == "parallel"
		pslOnly := f.Name == "racy" || f.Name == "interp" || f.Name == "disasm"
		switch {
		case stray != "":
		case *psl == "" && pslOnly:
			stray = fmt.Sprintf("-%s requires -psl", f.Name)
		case *psl != "" && !pslOnly && f.Name != "psl" && f.Name != "iterations" && f.Name != "seed":
			stray = fmt.Sprintf("-psl does not read -%s (it takes -racy, -interp, -disasm, -iterations and -seed)", f.Name)
		case *portfolio != "" && f.Name == "strategy":
			stray = "-strategy cannot be combined with -portfolio: the portfolio names every worker's strategy"
		}
	})
	if stray != "" {
		fmt.Fprintln(stderr, "psharp-test:", stray)
		return 2
	}
	if *psl != "" {
		return runPSL(*psl, *racy, *interpEngine, *disasm, *iterations, *seed, stdout, stderr)
	}
	b, ok := protocols.ByName(*bench, *buggy)
	if !ok {
		fmt.Fprintf(stderr, "psharp-test: unknown benchmark %q (try -list)\n", *bench)
		return 2
	}
	if *liveness {
		*monitors = true
		if b.Temperature == 0 && *temperature == 0 {
			fmt.Fprintf(stderr, "psharp-test: %s declares no liveness specification; pass -temperature explicitly\n", b.ID())
			return 2
		}
	}
	if *temperature == 0 {
		*temperature = b.Temperature
	}
	if *liveness && *temperature <= 0 {
		// A non-positive threshold would silently disable temperature
		// tracking in the controller and report the run clean.
		fmt.Fprintf(stderr, "psharp-test: -liveness needs a positive -temperature, got %d\n", *temperature)
		return 2
	}
	if *fairPrefix < 0 {
		*fairPrefix = b.FairPrefix
		if *fairPrefix <= 0 {
			*fairPrefix = b.MaxSteps / 2
		}
	}
	if *liveness && *temperature <= *fairPrefix {
		fmt.Fprintf(stderr, "psharp-test: warning: -temperature %d <= -fair-prefix %d: the threshold can be crossed inside the random (unfair) prefix, which reports scheduler starvation as a violation; raise -temperature or shrink -fair-prefix\n",
			*temperature, *fairPrefix)
	}
	setup := b.Setup
	if *monitors {
		setup = b.SetupMonitored()
	}
	if *strategy == "" {
		*strategy = "random"
		if *liveness {
			*strategy = "fair"
		}
	}

	if *replay != "" {
		return replayTrace(b, setup, *replay, *liveness, *temperature, stdout, stderr)
	}

	// Flags → options. What may be combined with what is sct's call
	// (ParallelOptions.Validate), made before the run has any side effect.
	usage := func(err error) int {
		fmt.Fprintln(stderr, "psharp-test:", err)
		return 2
	}
	popts := sct.ParallelOptions{
		Options: sct.Options{
			Iterations:     *iterations,
			Timeout:        *timeout,
			MaxSteps:       b.MaxSteps,
			StopOnFirstBug: !*keepGoing,
			LivelockAsBug:  b.LivelockAsBug,
			StateCache:     *stateCache,
		},
		Workers:    *parallel,
		ShardCount: 1,
	}
	opts := &popts.Options
	if *liveness {
		opts.LivenessTemperature = *temperature
	}
	if *faults > 0 {
		opts.Faults = sct.FaultOptions{
			Budget:  *faults,
			Seed:    *seed,
			Horizon: *faultHorizon,
			Immune:  b.FaultImmune,
			Restart: true,
		}
	}
	label := *strategy
	if *portfolio != "" {
		// Fair members take the same prefix as -strategy fair, so a
		// -liveness temperature calibrated above the prefix stays sound.
		pf, err := sct.ParsePortfolio(*portfolio, *seed, b.MaxSteps, *fairPrefix)
		if err != nil {
			return usage(err)
		}
		popts.Portfolio = pf
		label = "portfolio[" + *portfolio + "]"
		if !parallelSet {
			// -portfolio implies one worker per member unless -parallel was
			// given explicitly; fewer workers than members drops members.
			popts.Workers = pf.Size()
		}
	} else {
		var err error
		if opts.Strategy, err = sct.NewStrategy(*strategy, *seed, b.MaxSteps, *fairPrefix); err != nil {
			return usage(err)
		}
	}
	campaignStrategy := label
	if *shardSpec != "" {
		var err error
		if popts.ShardIndex, popts.ShardCount, err = parseShard(*shardSpec); err != nil {
			return usage(err)
		}
	}
	err := popts.Validate()
	if err == nil && *resumeRun && *journalDir == "" {
		err = errors.New("-resume requires -journal")
	}
	if err != nil {
		return usage(err)
	}
	if pf, n := popts.Portfolio, popts.WorkerCount(); pf != nil && n < pf.Size() {
		fmt.Fprintf(stderr, "psharp-test: warning: -parallel %d runs only the first %d of %d portfolio members\n", n, n, pf.Size())
	}
	if name := popts.Unfair(); *liveness && name != "" {
		// Temperature tracking applies to every worker; an unfair one can
		// starve the machine that would discharge the obligation.
		what := "strategy"
		if popts.Portfolio != nil {
			what = "portfolio member"
		}
		fmt.Fprintf(stderr, "psharp-test: warning: -liveness with the unfair %s %q can report spurious violations (scheduler starvation); use fair\n", what, name)
	}
	if *shardSpec != "" && *journalDir == "" {
		fmt.Fprintf(stderr, "psharp-test: note: -shard without -journal splits the budget but records nothing; shard results merge only through a shared journal\n")
	}
	// Outputs written when the campaign is over are tried now: a path that
	// cannot be written fails here, not after the last schedule.
	for _, path := range []string{*reportOut, *traceOut} {
		if err := probeOutput(path); err != nil {
			fmt.Fprintln(stderr, "psharp-test:", err)
			return 1
		}
	}

	// Observability wiring: a Telemetry accumulator backs both the campaign
	// report and the live /debug/vars view; progress snapshots go to stderr
	// as text or to a JSONL stream.
	var tel *sct.Telemetry
	if *reportOut != "" || *httpAddr != "" {
		tel = sct.NewTelemetry(0)
		opts.Telemetry = tel
	}
	if *progressJSONL != "" {
		w := io.Writer(stdout)
		if *progressJSONL != "-" {
			f, err := os.Create(*progressJSONL)
			if err != nil {
				fmt.Fprintln(stderr, "psharp-test:", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if *progressEvery <= 0 {
			*progressEvery = 1000
		}
		opts.Progress = sct.ProgressJSONL(w)
	} else if *progressEvery > 0 {
		opts.Progress = sct.ProgressText(stderr)
	}
	opts.ProgressEvery = *progressEvery
	if *httpAddr != "" {
		addr, shutdown, err := obs.ServeDebug(*httpAddr, func() any { return tel.Snapshot() })
		if err != nil {
			fmt.Fprintln(stderr, "psharp-test:", err)
			return 1
		}
		fmt.Fprintf(stderr, "psharp-test: debug endpoint at http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
		defer shutdown()
	}

	// Journal wiring: open (or resume) this process's shard of the campaign
	// journal before exploring, and preload its recovered state through
	// Options.Journal. The meta pins the campaign's true worker layout.
	shardIndex, shardCount := popts.ShardIndex, popts.ShardCount
	var jc *journal.Campaign
	resumed := false
	if *journalDir != "" {
		meta := journal.Meta{
			Benchmark:    b.ID(),
			Strategy:     campaignStrategy,
			Seed:         *seed,
			Workers:      popts.WorkerCount(),
			ShardIndex:   shardIndex,
			ShardCount:   shardCount,
			MaxSteps:     b.MaxSteps,
			FaultBudget:  *faults,
			FaultHorizon: *faultHorizon,
			Extra: fmt.Sprintf("monitors=%t liveness=%t temperature=%d fair-prefix=%d state-cache=%t",
				*monitors, *liveness, *temperature, *fairPrefix, *stateCache),
		}
		jopts := journal.Options{SyncEvery: *journalSync}
		var err error
		if *resumeRun {
			jc, err = journal.Resume(*journalDir, meta, jopts)
		} else {
			jc, err = journal.Create(*journalDir, meta, jopts)
		}
		if err != nil {
			fmt.Fprintln(stderr, "psharp-test:", err)
			return 1
		}
		opts.Journal = jc
		resumed = jc.Resumed()
		if resumed {
			base := jc.Counters()
			fmt.Fprintf(stderr, "psharp-test: resuming campaign in %s: %d iterations (+%d pruned) and %d distinct schedules journaled\n",
				*journalDir, base.Iterations, base.PrunedIterations, len(jc.Fingerprints()))
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the run
	// cooperatively — workers finish their in-flight schedule, the journal
	// flushes a final checkpoint, and the report/trace outputs below still
	// run. A second signal exits immediately.
	stop := make(chan struct{})
	opts.Stop = stop
	var signalled atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		signalled.Store(true)
		fmt.Fprintf(stderr, "psharp-test: %v: stopping after in-flight schedules (journal and reports will be written; repeat to exit immediately)\n", sig)
		close(stop)
		if _, ok := <-sigc; ok {
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigc) // releases the watcher; safe after Stop
	}()

	prep := sct.RunParallel(setup, popts)
	rep := prep.Report
	if len(prep.Workers) > 1 || popts.Portfolio != nil || shardCount > 1 {
		if *verbose {
			for _, w := range prep.Workers {
				fmt.Fprintf(stdout, "  worker %d (%s): %s\n", w.Worker, w.Strategy, w.Report.String())
			}
		}
		sharding := ""
		if shardCount > 1 {
			sharding = fmt.Sprintf(", shard %d/%d", shardIndex+1, shardCount)
		}
		label = fmt.Sprintf("%s x%d workers%s", label, len(prep.Workers), sharding)
	}
	suffix := ""
	if *monitors {
		suffix = " (monitored)"
	}
	fmt.Fprintf(stdout, "%s under %s%s: %s\n", b.ID(), label, suffix, rep.String())
	if rep.Err != nil {
		fmt.Fprintln(stderr, "psharp-test:", rep.Err)
	}
	if rep.Interrupted {
		resumeHint := ""
		if jc != nil {
			resumeHint = fmt.Sprintf("; resume with -journal %s -resume", *journalDir)
		}
		fmt.Fprintf(stdout, "campaign interrupted: partial results%s\n", resumeHint)
	}
	if *faults > 0 {
		fmt.Fprintf(stdout, "faults injected: %d crashes (%d restarted), %d drops, %d duplicates, %d reorders\n",
			rep.Faults.Crashes, rep.Faults.Restarts, rep.Faults.Drops, rep.Faults.Duplicates, rep.Faults.Reorders)
	}
	if rep.BugFound() {
		if bug := rep.FirstBug; bug.Monitor != "" {
			fmt.Fprintf(stdout, "specification violated: monitor %q (%s)\n", bug.Monitor, bug.Kind)
		}
	}
	if rep.BugFound() && *traceOut != "" {
		if err := writeTrace(*traceOut, rep.FirstBugTrace); err != nil {
			fmt.Fprintln(stderr, "psharp-test:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (%d decisions)\n", *traceOut, rep.FirstBugTrace.Len())
	}
	if *reportOut != "" {
		cfg := sct.CampaignConfig{
			Benchmark:   b.ID(),
			Strategy:    campaignStrategy,
			Workers:     len(prep.Workers),
			Iterations:  *iterations,
			MaxSteps:    b.MaxSteps,
			TimeoutMS:   timeout.Milliseconds(),
			Seed:        *seed,
			Monitors:    *monitors,
			Liveness:    *liveness,
			FaultBudget: *faults,
			StateCache:  *stateCache,
			Resumed:     resumed,
		}
		if shardCount > 1 {
			cfg.Shard = fmt.Sprintf("%d/%d", shardIndex+1, shardCount)
		}
		c := sct.NewCampaign(cfg, &rep, prep.Workers, tel)
		if err := c.WriteFile(*reportOut); err != nil {
			fmt.Fprintln(stderr, "psharp-test:", err)
			return 1
		}
		fmt.Fprintf(stdout, "campaign report written to %s (version %d, %d transitions covered, %d growth points)\n",
			*reportOut, c.Version, c.Telemetry.CoveredTransitions, len(c.Telemetry.GrowthCurve))
	}
	if jc != nil {
		// A sick journal never fails the exploration, but it must not fail
		// silently either: the campaign ran unjournaled from the first error
		// on, so resuming from this directory would lose that work.
		if err := jc.Err(); err != nil {
			fmt.Fprintf(stderr, "psharp-test: warning: journal degraded, campaign not fully recorded: %v\n", err)
		}
		if err := jc.Close(); err != nil {
			fmt.Fprintf(stderr, "psharp-test: warning: closing journal: %v\n", err)
		} else if st, err := journal.ReadState(*journalDir); err == nil {
			fmt.Fprintf(stdout, "journal: %s holds %d distinct schedules and %d iterations (+%d pruned) across %d/%d shard(s)\n",
				*journalDir, st.DistinctSchedules, st.Counters.Iterations, st.Counters.PrunedIterations, st.ShardsPresent, st.Shards)
		}
	}
	if signalled.Load() {
		return 130
	}
	if rep.Err != nil {
		return 2
	}
	if rep.BugFound() {
		return 1
	}
	return 0
}

// parseShard parses a 1-based "i/n" shard spec into a 0-based index and a
// count.
func parseShard(spec string) (index, count int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	idx, errI := strconv.Atoi(i)
	cnt, errN := strconv.Atoi(n)
	if !ok || errI != nil || errN != nil || cnt < 1 || idx < 1 || idx > cnt {
		return 0, 0, fmt.Errorf("-shard wants i/n with 1 <= i <= n (e.g. 2/4), got %q", spec)
	}
	return idx - 1, cnt, nil
}

// probeOutput reports why path ("" is no path) could not be written later.
// It leaves a file that exists as it is and creates none.
func probeOutput(path string) error {
	if path == "" {
		return nil
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	f.Close()
	if os.IsNotExist(statErr) {
		return os.Remove(path)
	}
	return nil
}

// writeTrace encodes tr into path.
func writeTrace(path string, tr *psharp.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayTrace decodes a trace file and re-executes it against the
// benchmark, reporting whether the recorded bug reproduces. Exit codes: 0
// when a bug reproduces, 3 when the schedule replays clean, 1/2 on errors.
func replayTrace(b protocols.Benchmark, setup func(*psharp.Runtime), path string, liveness bool, temperature int, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "psharp-test:", err)
		return 2
	}
	tr, err := psharp.DecodeTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "psharp-test:", err)
		return 2
	}
	cfg := psharp.TestConfig{
		MaxSteps:      b.MaxSteps,
		LivelockAsBug: b.LivelockAsBug,
	}
	if liveness {
		cfg.LivenessTemperature = temperature
	}
	if tr.HasFaultDecisions() {
		// A fault-era trace needs the fault-query path live so the recorded
		// crash/drop/duplicate decisions land on the queries that produced
		// them. (ReplayTrace would enable this itself; setting the immune
		// list keeps the replayed run's validation identical to recording.)
		cfg.Faults = &psharp.FaultConfig{Immune: b.FaultImmune}
	}
	// A trace recorded against a different program (or stale binary) makes
	// the replay strategy panic with a divergence report; surface it as a
	// command error instead of a crash.
	res, err := func() (res psharp.IterationResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		return sct.ReplayTrace(setup, tr, cfg), nil
	}()
	if err != nil {
		fmt.Fprintln(stderr, "psharp-test:", err)
		return 2
	}
	if res.Bug != nil {
		fmt.Fprintf(stdout, "%s: replayed %d decisions: %v\n", b.ID(), tr.Len(), res.Bug)
		return 0
	}
	fmt.Fprintf(stdout, "%s: replayed %d decisions: no bug reproduced\n", b.ID(), tr.Len())
	return 3
}

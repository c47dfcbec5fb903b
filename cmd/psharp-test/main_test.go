package main

// In-process smoke tests for the CLI: the -trace-out / -replay round trip
// (replay usable from the command line, not just the API), and the liveness
// flags.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/psharp-go/psharp/journal"
	"github.com/psharp-go/psharp/sct"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestTraceOutReplayRoundTrip finds a bug, writes its trace with
// -trace-out, and replays it with -replay: the recorded bug must reproduce
// from the file.
func TestTraceOutReplayRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "bug.trace")
	code, stdout, stderr := runCLI(t,
		"-bench", "ChainReplication", "-buggy",
		"-iterations", "500", "-seed", "20150628",
		"-trace-out", trace)
	if code != 1 {
		t.Fatalf("exploration exit code = %d, want 1 (bug found)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "trace written to") {
		t.Fatalf("stdout does not confirm the trace write:\n%s", stdout)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}

	code, stdout, stderr = runCLI(t,
		"-bench", "ChainReplication", "-buggy",
		"-replay", trace)
	if code != 0 {
		t.Fatalf("replay exit code = %d, want 0 (bug reproduced)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "replayed") || strings.Contains(stdout, "no bug reproduced") {
		t.Fatalf("replay output does not report the bug:\n%s", stdout)
	}
}

// TestLivenessFlagRoundTrip drives the liveness pipeline end to end from
// the CLI: -monitors attaches the ResponseMonitor, the default random
// strategy finds the FairResponder bug as a fair lasso, writes the trace,
// and -replay reproduces the liveness violation with no liveness setting.
func TestLivenessFlagRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "liveness.trace")
	code, stdout, stderr := runCLI(t,
		"-bench", "FairResponder", "-buggy", "-monitors",
		"-iterations", "200", "-seed", "20150628",
		"-trace-out", trace)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (liveness bug found)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "liveness violation") || !strings.Contains(stdout, "ResponseMonitor") || !strings.Contains(stdout, "fair cycle") {
		t.Fatalf("stdout does not report the monitor's lasso:\n%s", stdout)
	}

	code, stdout, _ = runCLI(t,
		"-bench", "FairResponder", "-buggy", "-monitors",
		"-replay", trace)
	if code != 0 {
		t.Fatalf("replay exit code = %d, want 0\nstdout: %s", code, stdout)
	}
	if !strings.Contains(stdout, "liveness violation") {
		t.Fatalf("replay did not reproduce the liveness violation:\n%s", stdout)
	}
}

// TestReplayCleanTraceExitCode checks the distinct exit code for a trace
// that replays without reproducing a bug.
func TestReplayCleanTraceExitCode(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "clean.trace")
	// A trivially short hand-written trace: schedule the first machine once.
	if err := os.WriteFile(trace, []byte("s ChainServer 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-bench", "TwoPhaseCommit", "-replay", trace)
	// Replay divergence (wrong machine name) or clean replay are both
	// acceptable shapes for a bogus trace, but a reproduced bug is not.
	if code == 0 {
		t.Fatalf("bogus trace claimed to reproduce a bug\nstdout: %s\nstderr: %s", stdout, stderr)
	}
}

// TestFaultsFlagRoundTrip drives fault injection end to end from the CLI:
// -faults finds the crash-only TwoPhaseCommitFT bug that fault-free
// exploration cannot reach, writes the fault-bearing trace, and -replay
// reproduces the crash schedule from the file.
func TestFaultsFlagRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "crash.trace")
	code, stdout, stderr := runCLI(t,
		"-bench", "TwoPhaseCommitFT", "-buggy", "-monitors",
		"-faults", "2", "-fault-horizon", "64",
		"-iterations", "3000", "-seed", "1",
		"-trace-out", trace)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (bug found)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "FTAtomicity") {
		t.Fatalf("stdout does not report the atomicity monitor violation:\n%s", stdout)
	}
	if !strings.Contains(stdout, "faults injected:") || strings.Contains(stdout, "0 crashes") {
		t.Fatalf("stdout does not report injected crashes:\n%s", stdout)
	}

	code, stdout, stderr = runCLI(t,
		"-bench", "TwoPhaseCommitFT", "-buggy", "-monitors",
		"-replay", trace)
	if code != 0 {
		t.Fatalf("replay exit code = %d, want 0 (bug reproduced)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "atomicity violated") {
		t.Fatalf("replay did not reproduce the atomicity violation:\n%s", stdout)
	}
}

// TestHelpExitsZero checks that -h stays a success exit, as with the
// default flag handling the command had before run() was extracted.
func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit code = %d, want 0\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "-monitors") {
		t.Fatalf("usage output missing the monitors flag:\n%s", stderr)
	}
}

// TestReportOutWritesCampaign checks the -report-out pipeline: a parallel
// exploration leaves a versioned campaign report whose telemetry carries a
// multi-bucket coverage growth curve.
func TestReportOutWritesCampaign(t *testing.T) {
	report := filepath.Join(t.TempDir(), "campaign.json")
	code, stdout, stderr := runCLI(t,
		"-bench", "TwoPhaseCommit", "-buggy", "-keep-going",
		"-iterations", "2000", "-seed", "20150628", "-parallel", "2",
		"-report-out", report)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (buggy benchmark)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "campaign report written to") {
		t.Fatalf("stdout does not confirm the report write:\n%s", stdout)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var c sct.Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("campaign does not decode: %v", err)
	}
	if c.Version != sct.CampaignVersion {
		t.Fatalf("version = %d, want %d", c.Version, sct.CampaignVersion)
	}
	if c.Result.Iterations != 2000 || c.Result.BuggyIterations == 0 {
		t.Fatalf("implausible result: %+v", c.Result)
	}
	if c.Env.GoVersion == "" {
		t.Fatalf("missing environment metadata: %+v", c.Env)
	}
	if c.Telemetry == nil {
		t.Fatal("report has no telemetry")
	}
	if len(c.Telemetry.GrowthCurve) < 3 {
		t.Fatalf("growth curve has %d points, want >= 3", len(c.Telemetry.GrowthCurve))
	}
	last := c.Telemetry.GrowthCurve[len(c.Telemetry.GrowthCurve)-1]
	if last.DistinctSchedules == 0 || last.CoveredTransitions == 0 {
		t.Fatalf("degenerate final growth point: %+v", last)
	}
	if len(c.Telemetry.BugCensus) == 0 {
		t.Fatal("report has no bug census despite buggy iterations")
	}
}

// TestOutputPathsRefusedBeforeRunning: a -report-out or -trace-out path that
// cannot be written ends the command before the first schedule — nothing is
// explored, no journal is created — and the check itself leaves no file
// behind: a run that finds no bug still writes no trace, and a file already
// at the path is not touched until there is something to put in it.
func TestOutputPathsRefusedBeforeRunning(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	for _, flag := range []string{"-report-out", "-trace-out"} {
		code, stdout, stderr := runCLI(t, "-bench", "TwoPhaseCommit", "-buggy", "-iterations", "100000000",
			"-journal", jdir, flag, filepath.Join(dir, "missing", "out"))
		if code != 1 || stdout != "" || !strings.Contains(stderr, "no such file or directory") {
			t.Fatalf("%s into a missing directory: exit %d\nstdout: %s\nstderr: %s", flag, code, stdout, stderr)
		}
		if _, err := os.Stat(jdir); !os.IsNotExist(err) {
			t.Fatalf("%s was refused after the journal was created (%v)", flag, err)
		}
	}

	trace, kept := filepath.Join(dir, "clean.trace"), filepath.Join(dir, "kept.trace")
	if err := os.WriteFile(kept, []byte("an earlier trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{trace, kept} {
		if code, stdout, stderr := runCLI(t, "-bench", "TwoPhaseCommit", "-iterations", "50", "-trace-out", path); code != 0 {
			t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
		}
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Fatalf("a run that found no bug left a trace file behind (%v)", err)
	}
	if data, err := os.ReadFile(kept); err != nil || string(data) != "an earlier trace" {
		t.Fatalf("a run that found no bug changed the file at -trace-out: %q, %v", data, err)
	}
}

// TestProgressJSONLFlag checks the machine-readable progress stream: every
// line decodes as a Progress snapshot and iteration counts ascend.
func TestProgressJSONLFlag(t *testing.T) {
	stream := filepath.Join(t.TempDir(), "progress.jsonl")
	code, stdout, stderr := runCLI(t,
		"-bench", "TwoPhaseCommit", "-buggy", "-keep-going",
		"-iterations", "200", "-seed", "1",
		"-progress-every", "50", "-progress-jsonl", stream)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	f, err := os.Open(stream)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	var prev int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var p sct.Progress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("line %d does not decode: %v", lines+1, err)
		}
		if p.Iterations <= prev || p.Budget != 200 {
			t.Fatalf("non-ascending or mislabeled snapshot: %+v after %d", p, prev)
		}
		prev = p.Iterations
		lines++
	}
	if lines != 4 {
		t.Fatalf("got %d progress lines, want 4 (200 iterations / every 50)", lines)
	}
}

// notifyingWriter is a thread-safe stderr sink that announces the debug
// endpoint address the moment psharp-test prints it, so the test can query
// the endpoint while the run is still exploring.
type notifyingWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (w *notifyingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if m := debugAddrRE.FindStringSubmatch(w.buf.String()); m != nil {
			w.found = true
			w.addr <- m[1]
		}
	}
	return len(p), nil
}

var debugAddrRE = regexp.MustCompile(`http://([^/\s]+)/debug/vars`)

// TestHTTPDebugEndpoint starts a run with -http on an ephemeral port and
// fetches /debug/vars while it explores: the response must be the live
// telemetry snapshot as JSON.
func TestHTTPDebugEndpoint(t *testing.T) {
	stderr := &notifyingWriter{addr: make(chan string, 1)}
	var stdout bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-bench", "TwoPhaseCommit", "-buggy", "-keep-going",
			"-iterations", "20000", "-seed", "1",
			"-http", "127.0.0.1:0",
		}, &stdout, stderr)
	}()
	addr := <-stderr.addr
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("debug endpoint unreachable: %v", err)
	}
	var snap sct.TelemetrySnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars is not a telemetry snapshot: %v", err)
	}
	if code := <-done; code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s", code, stdout.String())
	}
	// After the run the listener must be closed (deferred shutdown).
	if _, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Fatal("debug endpoint still serving after run returned")
	}
}

// readCampaign decodes a -report-out file.
func readCampaign(t *testing.T, path string) sct.Campaign {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c sct.Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("campaign does not decode: %v", err)
	}
	return c
}

// TestJournalResumeCLIRoundTrip drives the resumable-campaign workflow end
// to end through the flags: a budget-split campaign (two invocations, the
// second with -resume) must land on exactly the distinct-schedule count of
// one uninterrupted run, and the resumed report must say so.
func TestJournalResumeCLIRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	jdir := filepath.Join(tmp, "journal")
	common := []string{"-bench", "TwoPhaseCommit", "-buggy", "-keep-going", "-seed", "3"}

	code, stdout, stderr := runCLI(t, append(common,
		"-iterations", "120", "-journal", jdir)...)
	if code != 1 {
		t.Fatalf("first slice exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "journal: "+jdir+" holds") {
		t.Fatalf("no journal summary line:\n%s", stdout)
	}

	// Re-running without -resume must refuse rather than clobber the campaign.
	code, _, stderr = runCLI(t, append(common, "-iterations", "120", "-journal", jdir)...)
	if code != 1 || !strings.Contains(stderr, "resume") {
		t.Fatalf("journal overwrite not refused: code=%d stderr=%s", code, stderr)
	}

	resumedReport := filepath.Join(tmp, "resumed.json")
	code, stdout, stderr = runCLI(t, append(common,
		"-iterations", "400", "-journal", jdir, "-resume", "-report-out", resumedReport)...)
	if code != 1 {
		t.Fatalf("resume exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "resuming campaign") {
		t.Fatalf("no resume note on stderr:\n%s", stderr)
	}

	soloReport := filepath.Join(tmp, "solo.json")
	code, _, stderr = runCLI(t, append(common, "-iterations", "400", "-report-out", soloReport)...)
	if code != 1 {
		t.Fatalf("solo exit = %d\nstderr: %s", code, stderr)
	}

	resumed, solo := readCampaign(t, resumedReport), readCampaign(t, soloReport)
	if !resumed.Config.Resumed {
		t.Fatal("resumed report not marked resumed")
	}
	if resumed.Result.Iterations != 400 {
		t.Fatalf("resumed campaign totals %d iterations, want 400", resumed.Result.Iterations)
	}
	if resumed.Result.DistinctSchedules != solo.Result.DistinctSchedules {
		t.Fatalf("distinct schedules diverged: resumed %d vs solo %d",
			resumed.Result.DistinctSchedules, solo.Result.DistinctSchedules)
	}
	if resumed.Result.BuggyIterations != solo.Result.BuggyIterations {
		t.Fatalf("buggy iterations diverged: resumed %d vs solo %d",
			resumed.Result.BuggyIterations, solo.Result.BuggyIterations)
	}
}

// TestResumeRefusesAnotherBuildsCursor: -resume on a campaign whose journal
// holds a cursor this build cannot read (what a depth-first campaign
// journaled before cursor version 2 holds) is one line on stderr and exit 2,
// not a stack trace, and runs nothing.
func TestResumeRefusesAnotherBuildsCursor(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	common := []string{"-bench", "TwoPhaseCommit", "-strategy", "dfs", "-journal", jdir}
	if code, stdout, stderr := runCLI(t, append(common, "-iterations", "50")...); code != 0 {
		t.Fatalf("journaled run exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	st, err := journal.ReadState(jdir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := journal.Resume(jdir, st.Meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(0, 50, []byte{1, 0, 0, 1, 0}, nil) // cursor version 1: an empty DFS stack
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, append(common, "-iterations", "100", "-resume")...)
	if code != 2 {
		t.Fatalf("resume exit = %d, want 2\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	var refusal []string
	for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
		if !strings.Contains(line, "resuming campaign") {
			refusal = append(refusal, line)
		}
	}
	if len(refusal) != 1 || !strings.HasPrefix(refusal[0], "psharp-test: sct: journal cursor for worker 0: cursor version 1, this build reads version 2: ") ||
		!strings.Contains(refusal[0], "must be finished by that build or started afresh") {
		t.Fatalf("want the one-line refusal, got:\n%s", stderr)
	}
	if !strings.Contains(stdout, ": 0 schedules") || !strings.Contains(stdout, "holds 50 distinct schedules and 50 iterations") {
		t.Fatalf("the refused resume should run nothing and leave the journal as it found it:\n%s", stdout)
	}
}

// TestResumeStateCacheCampaignCountsWholeBudget: after -resume, the report,
// campaign.json and the journal all count the campaign, not the last process:
// explored plus pruned schedules are the budget, and the shares are ratios of
// two campaign-wide numbers. The second half resumes a journal the build
// before sct.Tally wrote (testdata/journal-parent, 60 schedules of the same
// campaign, a twelve-value counters record): it still resumes, and what that
// record never carried counts from zero. That build also packed liveness
// settings the command no longer has into the manifest's configuration
// fingerprint, all at their defaults: the journal resumes as it was written.
func TestResumeStateCacheCampaignCountsWholeBudget(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-bench", "TwoPhaseCommit", "-strategy", "dfs", "-state-cache"}
	resume := func(jdir string, budget int) (sct.CampaignResult, string) {
		t.Helper()
		report := filepath.Join(dir, "campaign.json")
		code, stdout, stderr := runCLI(t, append(common, "-journal", jdir, "-resume",
			"-iterations", fmt.Sprint(budget), "-report-out", report)...)
		if code != 0 {
			t.Fatalf("resume exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
		}
		return readCampaign(t, report).Result, stdout
	}

	jdir := filepath.Join(dir, "journal")
	if code, stdout, stderr := runCLI(t, append(common, "-journal", jdir, "-iterations", "150")...); code != 0 {
		t.Fatalf("journaled run exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	res, stdout := resume(jdir, 300)
	if res.Iterations+res.PrunedIterations != 300 {
		t.Fatalf("resumed campaign reports %d explored + %d pruned schedules of a budget of 300", res.Iterations, res.PrunedIterations)
	}
	points := float64(res.TotalSchedulingPoints + res.PrunedPoints)
	if res.RestoredShare != float64(res.RestoredPoints)/points || res.ContinuedShare != float64(res.ContinuedPoints)/points ||
		res.RestoredShare <= 0 || res.RestoredShare > 1 || res.ContinuedShare > 1 {
		t.Fatalf("shares are not ratios of the campaign's own counters: %+v", res)
	}
	if want := fmt.Sprintf("%d iterations (+%d pruned) across 1/1 shard(s)", res.Iterations, res.PrunedIterations); !strings.Contains(stdout, want) {
		t.Fatalf("journal summary does not say %q:\n%s", want, stdout)
	}

	parent := filepath.Join(dir, "journal-parent")
	if err := os.CopyFS(parent, os.DirFS("testdata/journal-parent")); err != nil {
		t.Fatal(err)
	}
	res, _ = resume(parent, 120)
	// 9 explored schedules journaled and 51 pruned ones not; the resumed
	// process explores 6 and prunes 54 — what the parent build itself printed.
	if res.Iterations != 15 || res.PrunedIterations != 54 || res.TotalSchedulingPoints != 1122 || res.PrunedPoints != 3874 {
		t.Fatalf("resuming the parent build's journal: %+v", res)
	}
}

// TestShardedJournalCLI splits one campaign across two -shard processes
// sharing a journal directory and checks they jointly cover the population
// of an equivalent single-process run.
func TestShardedJournalCLI(t *testing.T) {
	tmp := t.TempDir()
	jdir := filepath.Join(tmp, "journal")
	common := []string{"-bench", "TwoPhaseCommit", "-buggy", "-keep-going",
		"-seed", "3", "-iterations", "300", "-parallel", "2"}

	for shard := 1; shard <= 2; shard++ {
		spec := []string{"-journal", jdir, "-shard"}
		spec = append(spec, []string{"1/2", "2/2"}[shard-1])
		code, stdout, stderr := runCLI(t, append(common, spec...)...)
		if code != 1 {
			t.Fatalf("shard %d exit = %d\nstdout: %s\nstderr: %s", shard, code, stdout, stderr)
		}
		if !strings.Contains(stdout, "shard "+[]string{"1/2", "2/2"}[shard-1]) {
			t.Fatalf("shard %d summary does not name its shard:\n%s", shard, stdout)
		}
	}

	soloReport := filepath.Join(tmp, "solo.json")
	if code, _, stderr := runCLI(t, append(common, "-parallel", "4", "-report-out", soloReport)...); code != 1 {
		t.Fatalf("solo exit = %d\nstderr: %s", code, stderr)
	}
	solo := readCampaign(t, soloReport)

	// The second shard's journal summary merges both shard files; re-read it
	// via a third, fully-resumed invocation with zero new work... simpler:
	// the summary line was already printed by shard 2. Assert the merged
	// count by reading the directory with the journal API.
	st, err := journal.ReadState(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsPresent != 2 {
		t.Fatalf("shards present = %d, want 2", st.ShardsPresent)
	}
	if int(st.Counters.Iterations) != 300 {
		t.Fatalf("sharded campaign totals %d iterations, want 300", st.Counters.Iterations)
	}
	if st.DistinctSchedules != solo.Result.DistinctSchedules {
		t.Fatalf("sharded population %d distinct vs solo %d", st.DistinctSchedules, solo.Result.DistinctSchedules)
	}
}

// TestJournalFlagValidation pins the usage errors around the journal flags,
// and around -strategy, which a portfolio would otherwise drop silently:
// each exits 2 with one line on stderr before the journal directory exists.
func TestJournalFlagValidation(t *testing.T) {
	if code, _, stderr := runCLI(t, "-bench", "Raft", "-resume"); code != 2 || !strings.Contains(stderr, "-journal") {
		t.Fatalf("-resume without -journal: code=%d stderr=%s", code, stderr)
	}
	for _, bad := range [][]string{
		{"-shard", "0/2"}, {"-shard", "3/2"}, {"-shard", "x/y"}, {"-shard", "2"},
		{"-shard", "1/4.5"}, {"-shard", "1/2/3"}, {"-shard", "1x/2"},
		{"-strategy", "dpor", "-portfolio", "random,pct"},
	} {
		jdir := filepath.Join(t.TempDir(), "journal")
		code, stdout, stderr := runCLI(t, append([]string{"-bench", "Raft", "-journal", jdir}, bad...)...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Fatalf("%v: code=%d stdout=%q stderr=%q, want exit 2 and one line on stderr", bad, code, stdout, stderr)
		}
		if _, err := os.Stat(jdir); !os.IsNotExist(err) {
			t.Fatalf("%v: journal directory created before the refusal (%v)", bad, err)
		}
	}
}

// TestTimeoutWritesInterruptedReport is satellite 1: a run cut off by the
// hard time budget still writes its campaign report, marked interrupted.
func TestTimeoutWritesInterruptedReport(t *testing.T) {
	report := filepath.Join(t.TempDir(), "partial.json")
	code, stdout, stderr := runCLI(t,
		"-bench", "TwoPhaseCommit", "-buggy", "-keep-going",
		"-iterations", "100000000", "-seed", "1", "-timeout", "100ms",
		"-report-out", report)
	// Exit 1 if a buggy schedule landed before the deadline, 0 if not —
	// how many iterations fit in 100ms is timing-dependent (the race
	// detector cuts throughput an order of magnitude). Either way the
	// interrupted report below must be written.
	if code != 0 && code != 1 {
		t.Fatalf("exit = %d, want 0 or 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "[interrupted]") {
		t.Fatalf("summary missing the interrupted marker:\n%s", stdout)
	}
	if !strings.Contains(stdout, "campaign interrupted: partial results") {
		t.Fatalf("no partial-results note:\n%s", stdout)
	}
	c := readCampaign(t, report)
	if !c.Result.Interrupted {
		t.Fatal("report not marked interrupted")
	}
	if c.Result.Iterations == 0 || c.Result.Iterations >= 100000000 {
		t.Fatalf("implausible interrupted iteration count %d", c.Result.Iterations)
	}
}

// TestListIncludesLivenessSuite checks that -list names the liveness
// benchmarks alongside the Table 2 roster.
func TestListIncludesLivenessSuite(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit code = %d", code)
	}
	for _, want := range []string{
		"Raft(buggy)", "FairResponder [liveness]", "FairResponder(buggy) [liveness]",
		"TwoPhaseCommitFT [faults]", "TwoPhaseCommitFT(buggy) [faults]",
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("-list output missing %q:\n%s", want, stdout)
		}
	}
}

// TestPSLDisasmFlag prints the bytecode listing without running.
func TestPSLDisasmFlag(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-psl", "Pi", "-disasm")
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"machine ", "func ", "params="} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, stdout)
		}
	}
}

// TestPSLModeBadInputs: an unknown benchmark and a non-positive budget are
// usage errors (exit 2), and -list marks the .psl corpus.
func TestPSLModeBadInputs(t *testing.T) {
	if code, _, stderr := runCLI(t, "-psl", "Nope"); code != 2 || !strings.Contains(stderr, "Nope") {
		t.Fatalf("unknown -psl: code=%d stderr=%s", code, stderr)
	}
	for _, n := range []string{"0", "-3"} {
		code, stdout, stderr := runCLI(t, "-psl", "Pi", "-iterations", n)
		if code != 2 || stdout != "" || stderr != "psharp-test: Iterations must be positive\n" {
			t.Fatalf("-psl -iterations %s: code=%d stdout=%q stderr=%q, want exit 2 and one line", n, code, stdout, stderr)
		}
	}
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 || !strings.Contains(stdout, "Swordfish [psl]") {
		t.Fatalf("-list should mark the .psl corpus: code=%d\n%s", code, stdout)
	}
}

// TestPSLModeRefusesFlagsItDoesNotRead: -psl takes only -racy, -disasm,
// -iterations and -seed; any other flag is a usage error, not a silently
// dropped request.
func TestPSLModeRefusesFlagsItDoesNotRead(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-psl", "Pi", "-strategy", "dpor", "-faults", "3", "-journal", "d", "-parallel", "4")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "-psl does not read -faults") {
		t.Fatalf("stray flags under -psl: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
	code, stdout, stderr = runCLI(t, "-psl", "German", "-racy", "-iterations", "5", "-seed", "3")
	if code != 0 || !strings.Contains(stdout, "distinct races") {
		t.Fatalf("-psl with every flag it reads: code=%d stdout=%q stderr=%q, want exit 0 and a race count", code, stdout, stderr)
	}
}

// TestPSLOnlyFlagsRequirePSL: -racy and -disasm mean nothing to a Go-native
// benchmark run and are refused without -psl.
func TestPSLOnlyFlagsRequirePSL(t *testing.T) {
	for _, args := range [][]string{{"-racy"}, {"-disasm"}} {
		code, stdout, stderr := runCLI(t, append([]string{"-bench", "Raft", "-buggy", "-iterations", "5"}, args...)...)
		if want := args[0] + " requires -psl"; code != 2 || stdout != "" || !strings.Contains(stderr, want) {
			t.Fatalf("%v without -psl: code=%d stdout=%q stderr=%q, want exit 2 and %q", args, code, stdout, stderr, want)
		}
	}
}

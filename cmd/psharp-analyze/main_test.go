package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	verifiedSource = "../../internal/benchsrc/src/twophasecommit.psl"
	racySource     = "../../internal/benchsrc/src/twophasecommit_racy.psl"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// goldenViolations returns the violations the analysis' golden file records
// for one corpus source under the command's default options (xSA on,
// read-only off), as the command prints them.
func goldenViolations(t *testing.T, id string) []string {
	t.Helper()
	data, err := os.ReadFile("../../analysis/testdata/analysis_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(data), "== "+id+" xsa=true readonly=false\n")
	if !found {
		t.Fatalf("no golden section for %s", id)
	}
	section, _, _ = strings.Cut(section, "\n== ")
	_, final, _ := strings.Cut(section, "\n  final: ")
	var out []string
	for _, line := range strings.Split(final, "\n")[1:] {
		if v, _, isViolation := strings.Cut(line, " | event="); isViolation {
			out = append(out, strings.TrimPrefix(v, "  "))
		}
	}
	return out
}

func TestNoArgumentsIsUsageError(t *testing.T) {
	code, stdout, stderr := runCmd()
	if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "usage: psharp-analyze") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if code, _, _ := runCmd("-no-such-flag"); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}

func TestVerifiedSource(t *testing.T) {
	code, stdout, stderr := runCmd(verifiedSource)
	if want := verifiedSource + ": verified race-free (1 warnings discharged)\n"; code != 0 || stdout != want || stderr != "" {
		t.Fatalf("exit %d, stderr %q, stdout %q, want %q", code, stderr, stdout, want)
	}
}

func TestRacySourcePrintsTheGoldenViolations(t *testing.T) {
	want := goldenViolations(t, "TwoPhaseCommit(racy)")
	if len(want) == 0 {
		t.Fatal("the golden file records no violation for the racy variant")
	}
	code, stdout, _ := runCmd(racySource)
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if code != 1 || lines[0] != fmt.Sprintf("%s: %d potential data race(s):", racySource, len(want)) {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
	if got := lines[1:]; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("violations:\n%s\nwant the golden file's:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestUnreadableFileDoesNotStopTheRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.psl")
	code, stdout, stderr := runCmd(missing, verifiedSource)
	if code != 1 || !strings.Contains(stderr, "missing.psl") || strings.Count(stderr, "\n") != 1 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, verifiedSource+": verified race-free") {
		t.Fatalf("the file after the unreadable one was not analysed: stdout %q", stdout)
	}
}

func TestGivesUpIsSorted(t *testing.T) {
	// No corpus source has a method that gives a parameter up.
	src := filepath.Join(t.TempDir(), "givers.psl")
	if err := os.WriteFile(src, []byte(`
event eX;
class box { var v: int; }
machine m {
	var peer: machine;
	start state S { entry {} on eX do h; }
	method h(p: box) { this.zeta(p); }
	method zeta(a: box) { this.alpha(a, a); }
	method alpha(b: box, a: box) { var q: machine; q := this.peer; send q, eX, a; send q, eX, b; }
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stdout, stderr := runCmd("-gives-up", src)
	want := "m.alpha: gives up [a b]\nm.h: gives up [p]\nm.zeta: gives up [a]\n"
	if !strings.HasPrefix(stdout, want) || stderr != "" {
		t.Fatalf("stderr %q, stdout %q, want it to start with %q", stderr, stdout, want)
	}
}

// TestNestingRefusal: the source that used to end the process in a stack
// overflow is reported like any other syntax error, with its position.
func TestNestingRefusal(t *testing.T) {
	deep := filepath.Join(t.TempDir(), "deep.psl")
	src := "machine m { start state S { entry { var x: int;\nx := " + strings.Repeat("(", 5_000_000) + "1" + strings.Repeat(")", 5_000_000) + "; } } }"
	if err := os.WriteFile(deep, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCmd(deep, verifiedSource)
	if code != 1 || !strings.Contains(stderr, "deep.psl: lang: 2:1007: blocks and expressions nest deeper than 1000") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "verified race-free") {
		t.Fatalf("stdout %q", stdout)
	}
}

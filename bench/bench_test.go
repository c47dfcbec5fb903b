package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testScale divides every workload's operation counts so that all seven
// run, traced and untraced, in a few seconds.
const testScale = 200

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func names(ms []specMetric) map[string]bool {
	out := make(map[string]bool)
	for _, m := range ms {
		out[m.Name] = true
	}
	return out
}

// TestSpecMatchesProgram: BENCHMARK.json and the program declare the same
// workloads, and every name keeps to the benchmark contract's alphabet.
func TestSpecMatchesProgram(t *testing.T) {
	sp := mustSpec(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
		if !valid.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var built []string
	for _, w := range workloads() {
		built = append(built, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(built, ",") {
		t.Errorf("BENCHMARK.json declares workloads %v, the program has %v", declared, built)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !valid.MatchString(m.Name) || seen[m.Name] || seen[strings.ToLower(m.Name)] {
			t.Errorf("metric name %q is invalid or used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !names(sp.EndToEnd)["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at 1/testScale,
// untraced and traced. Each must pass its own output checks, emit exactly
// the declared end-to-end metrics, each a positive number, and only
// declared per-layer metrics; together the traced passes must produce every
// declared per-layer metric. Each run checks that its rounds repeat
// exactly; the second seed runs twice and must give the same counts both
// times.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := mustSpec(t)
	t.Setenv("TMPDIR", t.TempDir())
	endToEnd, perLayer := names(sp.EndToEnd), names(sp.PerLayer)
	produced := make(map[string]bool)
	for _, w := range workloads() {
		var first *outcome
		var firstSeed uint64
		for _, seed := range []uint64{3, 4, 4} {
			out, err := runUntraced(w, seed, 0.01, testScale)
			if err != nil {
				t.Fatal(err)
			}
			if out.checkErr != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, out.checkErr)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s seed %d: %d of %d operations failed", w.name, seed, out.failed, out.attempted)
			}
			for name, v := range out.metrics {
				if !endToEnd[name] {
					t.Errorf("%s emits undeclared end-to-end metric %s", w.name, name)
				}
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v, want a positive number", w.name, name, v)
				}
			}
			if len(out.metrics) != len(endToEnd) {
				t.Errorf("%s emits %d end-to-end metrics, BENCHMARK.json declares %d", w.name, len(out.metrics), len(endToEnd))
			}
			if first == nil || firstSeed != seed {
				first, firstSeed = out, seed
				continue
			}
			if diff := first.rounds[0].sameCounts(&out.rounds[0]); diff != "" {
				t.Errorf("%s seed %d does not repeat: %s", w.name, seed, diff)
			}
		}

		out, err := runTraced(w, 3, 0.01, testScale)
		if err != nil {
			t.Fatal(err)
		}
		if out.checkErr != nil {
			t.Fatalf("%s traced: %v", w.name, out.checkErr)
		}
		for name, v := range out.metrics {
			if !perLayer[name] {
				t.Errorf("%s emits undeclared per-layer metric %s", w.name, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
			produced[name] = true
		}
		for _, s := range out.spans.spans {
			if s.EndNS < s.StartNS || s.Parent >= len(out.spans.spans) || s.Workload != w.name {
				t.Fatalf("%s: malformed span %+v", w.name, s)
			}
		}
	}
	for name := range perLayer {
		if !produced[name] {
			t.Errorf("no workload's traced pass produces declared per-layer metric %s", name)
		}
	}
}

// TestResultLine drives the command form the benchmark's driver uses and
// checks the last line of output against the contract.
func TestResultLine(t *testing.T) {
	sp := mustSpec(t)
	for trace, declared := range map[string][]specMetric{"0": sp.EndToEnd, "1": sp.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "table1_analysis", "--seed", "7", "--seconds", "0.2", "--trace", trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := res[key]; !ok {
				t.Errorf("result lacks %q", key)
			}
		}
		if len(res) != 4 {
			t.Errorf("result has %d keys, want exactly 4", len(res))
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(declared) {
			t.Errorf("trace %s: %d metrics printed, %d declared", trace, len(metrics), len(declared))
		}
		for _, m := range declared {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s printed as %+v, declared with unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload accepted")
	}
}

// TestCompare: a slowdown beyond every bound is flagged on every metric and
// fails the command, a 1% one passes, and a pair whose own spread exceeds
// the bound is unresolved.
func TestCompare(t *testing.T) {
	sp := mustSpec(t)
	dir := t.TempDir()
	write := func(name string, factor, jitter float64) string {
		var f resultsFile
		for i := 0; i < 10; i++ {
			wobble := 1 + jitter*float64(i%5-2)/2
			r := result{Workload: "table2_random", Seed: uint64(i), Correct: true, Attempted: 100, Metrics: make(map[string]metricValue)}
			for _, m := range sp.EndToEnd {
				v := 1000 * wobble
				if m.Better == "higher" {
					v /= factor
				} else {
					v *= factor
				}
				r.Metrics[m.Name] = metricValue{v, m.Unit}
			}
			f.Runs = append(f.Runs, r)
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1, 0.004)
	compare := func(other string) (int, string) {
		var stdout bytes.Buffer
		code := cmdCompare(sp, []string{base, other}, &stdout, &stdout)
		return code, stdout.String()
	}
	if code, out := compare(write("same.json", 1.01, 0.004)); code != 0 || strings.Contains(out, string(regressed)) {
		t.Errorf("a 1%% slowdown: exit %d\n%s", code, out)
	}
	code, out := compare(write("slow.json", 1.4, 0.004))
	if code == 0 || strings.Count(out, string(regressed)) != len(sp.EndToEnd) {
		t.Errorf("a 40%% slowdown: exit %d, want every metric regressed\n%s", code, out)
	}
	if code, out := compare(write("noisy.json", 1.05, 0.6)); code != 0 || !strings.Contains(out, string(unresolved)) {
		t.Errorf("a noisy pair: exit %d, want unresolved\n%s", code, out)
	}
}

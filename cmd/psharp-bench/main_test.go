package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/psharp-go/psharp/sct"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestRefusedFlags: what the command cannot do is an exit 2 with a reason
// before any table is printed — never a panic out of the engine.
func TestRefusedFlags(t *testing.T) {
	positive := sct.ParallelOptions{}.Validate().Error() // "Iterations must be positive"
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"table none", []string{"-table", "none"}, `unknown -table "none"`},
		{"unknown table", []string{"-table", "3"}, `unknown -table "3"`},
		{"json without table 1", []string{"-table", "2", "-json", filepath.Join(t.TempDir(), "f.json")}, "-json requires -table 1"},
		{"check without table 1", []string{"-table", "2", "-check"}, "-check requires -table 1"},
		{"zero iterations", []string{"-table", "2", "-iterations", "0"}, "psharp-bench: " + positive},
		{"zero iterations, table all", []string{"-iterations", "0"}, "psharp-bench: " + positive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, tc.stderr) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr containing %q",
					code, stdout, stderr, tc.stderr)
			}
		})
	}
}

// TestTable1JSON: -json writes exactly the environment and the rows the run
// printed, one per Table 1 benchmark, each with a measured time.
func TestTable1JSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table1.json")
	code, stdout, stderr := runCLI(t, "-table", "1", "-check", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "Table 1 check: all 13 benchmarks match") {
		t.Errorf("stdout does not confirm the check:\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s does not decode: %v", path, err)
	}
	if len(doc) != 2 || doc["env"] == nil || doc["table1"] == nil {
		t.Fatalf("top-level keys = %d, want exactly env and table1:\n%s", len(doc), data)
	}
	var rows []struct {
		Name   string  `json:"name"`
		TimeUS float64 `json:"time_us"`
	}
	if err := json.Unmarshal(doc["table1"], &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("table1 has %d rows, want 13", len(rows))
	}
	for _, r := range rows {
		if r.Name == "" || r.TimeUS <= 0 || !strings.Contains(stdout, r.Name) {
			t.Errorf("row %+v: want a printed benchmark with time_us > 0", r)
		}
	}
}

// TestUnwritableJSONFailsBeforeTheWork: the -json file is opened before the
// analysis runs.
func TestUnwritableJSONFailsBeforeTheWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir", "table1.json")
	code, stdout, stderr := runCLI(t, "-table", "1", "-json", path)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "missing-dir") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no table, the path in the error", code, stdout, stderr)
	}
}

package main

import (
	"strings"
	"testing"
	"time"

	"github.com/psharp-go/psharp/internal/benchsrc"
)

// TestTable1MatchesExpectations cross-checks the harness against the
// benchsrc roster (which itself mirrors the paper's Table 1).
func TestTable1MatchesExpectations(t *testing.T) {
	rows, err := runTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(benchsrc.All()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(benchsrc.All()))
	}
	for i, want := range benchsrc.All() {
		got := rows[i]
		if got.Name != want.Name {
			t.Fatalf("row %d: %s, want %s", i, got.Name, want.Name)
		}
		if got.FPsNoXSA != want.FPsNoXSA || got.FPsXSA != want.FPsXSA || got.Verified != want.Verified {
			t.Errorf("%s: FPs (%d,%d,verified=%v), want (%d,%d,%v)",
				got.Name, got.FPsNoXSA, got.FPsXSA, got.Verified,
				want.FPsNoXSA, want.FPsXSA, want.Verified)
		}
		if want.HasRacy && !got.RacesFound {
			t.Errorf("%s: racy variant not flagged", got.Name)
		}
	}
	var sb strings.Builder
	printTable1(&sb, rows)
	if !strings.Contains(sb.String(), "MultiPaxos") {
		t.Error("printed table missing rows")
	}
}

// goldenTable1Rows builds the full 13-row Table 1 deterministically: the
// roster's published counts, the corpus statistics, and fixed timings (the
// only nondeterministic columns).
func goldenTable1Rows(t *testing.T) []table1Row {
	t.Helper()
	var rows []table1Row
	for _, b := range benchsrc.All() {
		s, err := benchsrc.StatsOf(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, table1Row{
			Name: b.Name, Suite: b.Suite,
			LoC: s.LoC, Machines: s.Machines,
			STs: s.StateTransitions, ABs: s.ActionBindings,
			Time:     10 * time.Millisecond,
			FPsNoXSA: b.FPsNoXSA, FPsXSA: b.FPsXSA,
			Verified: b.Verified, HasRacy: b.HasRacy,
			RacyTime: 5 * time.Millisecond, RacesFound: b.HasRacy,
		})
	}
	return rows
}

// TestPrintTable1Golden locks the full 13-row Table 1 render: the header,
// every row in the paper's order, the corpus statistics columns, and the
// dashes in the racy columns of benchmarks without a racy variant.
func TestPrintTable1Golden(t *testing.T) {
	var sb strings.Builder
	printTable1(&sb, goldenTable1Rows(t))
	if got := sb.String(); got != table1Golden {
		t.Errorf("printTable1 drifted from the golden render.\ngot:\n%s\nwant:\n%s", got, table1Golden)
	}
}

// TestCheckTable1 exercises the psharp-bench -check comparison on clean and
// drifted rows.
func TestCheckTable1(t *testing.T) {
	rows := goldenTable1Rows(t)
	if drift := checkTable1(rows); len(drift) != 0 {
		t.Fatalf("clean rows reported drift: %v", drift)
	}
	rows[0].FPsNoXSA++
	rows[6].FPsXSA--
	rows[1].RacesFound = false
	drift := checkTable1(rows)
	if len(drift) != 3 {
		t.Fatalf("drift = %v, want 3 entries", drift)
	}
	for _, want := range []string{"AsyncSystem", "MultiPaxos", "BoundedAsync"} {
		found := false
		for _, d := range drift {
			if strings.Contains(d, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("drift %v does not mention %s", drift, want)
		}
	}
	if drift := checkTable1(rows[:5]); len(drift) != 1 || !strings.Contains(drift[0], "row count") {
		t.Errorf("truncated rows: drift = %v, want a row-count mismatch", drift)
	}
}

// TestTable2RowSmoke runs a small-budget Table 2 row end to end and checks
// the cell structure and the first-schedule DFS find on ChainReplication.
func TestTable2RowSmoke(t *testing.T) {
	row, err := runTable2Row("ChainReplication", table2Options{
		Iterations: 200, Timeout: time.Minute, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(row.Cells))
	}
	for _, c := range row.Cells {
		if !c.BugFound {
			t.Errorf("%v: ChainReplication bug not found even at small budget", c.Mode)
		}
	}
	dfs := row.Cells[2]
	if dfs.Mode != modePSharpDFS || dfs.BugIteration != 0 {
		t.Errorf("P# DFS should find ChainReplication on the first schedule, got iteration %d", dfs.BugIteration)
	}
	var sb strings.Builder
	printTable2(&sb, []table2Row{row})
	if !strings.Contains(sb.String(), "ChainReplication") {
		t.Error("printed table missing the row")
	}
}

const table1Golden = `Benchmark            LoC   #M  #ST  #AB       Time   No-xSA    xSA Verified?   RacyTime Races?
AsyncSystem          155    3    7    2     0.010s        6      2        NO          -      -
BoundedAsync         111    3    1    5     0.010s        1      0       yes     0.005s    yes
German               134    3    0    8     0.010s        0      0       yes     0.005s    yes
BasicPaxos           141    4    2    7     0.010s        2      0       yes     0.005s    yes
TwoPhaseCommit       139    3    2    7     0.010s        1      0       yes     0.005s    yes
Chord                 96    3    0    5     0.010s        0      0       yes     0.005s    yes
MultiPaxos           219    5   12    2     0.010s       10      5        NO     0.005s    yes
Raft                 135    3    1    7     0.010s        0      0       yes     0.005s    yes
ChainReplication     115    2    5    1     0.010s        4      0       yes     0.005s    yes
Leader                95    3    0    5     0.010s        0      0       yes          -      -
Pi                   115    4    0    6     0.010s        0      0       yes          -      -
Chameneos            144    4    0    7     0.010s        0      0       yes          -      -
Swordfish            107    4    0    6     0.010s        0      0       yes          -      -
`

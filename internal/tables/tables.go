// Package tables regenerates the paper's evaluation tables: Table 1 (the
// static analyzer across the benchmark suites) and Table 2 (the scheduler
// comparison on the buggy protocol implementations), and nothing else: what
// a scheduling point or an analysis pass costs, layer by layer, is bench/'s
// to measure (bash bench/run.sh). It is shared by the psharp-bench command
// and the root bench_test.go harness.
package tables

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/psharp-go/psharp/analysis"
	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/lang"
	"github.com/psharp-go/psharp/sct"
)

// Table1Row is one benchmark's static-analysis results. In JSON the two
// times are written in microseconds, as time_us and racy_time_us.
type Table1Row struct {
	Name       string        `json:"name"`
	Suite      string        `json:"suite"`
	LoC        int           `json:"loc"`
	Machines   int           `json:"machines"`
	STs        int           `json:"state_transitions"`
	ABs        int           `json:"action_bindings"`
	Time       time.Duration `json:"-"`
	FPsNoXSA   int           `json:"fps_no_xsa"`
	FPsXSA     int           `json:"fps_xsa"`
	Verified   bool          `json:"verified"`
	RacyTime   time.Duration `json:"-"`
	RacesFound bool          `json:"races_found"` // "found all data races?" on the racy variant
	HasRacy    bool          `json:"has_racy"`
}

// MarshalJSON adds the times, in microseconds, to the tagged fields.
func (r Table1Row) MarshalJSON() ([]byte, error) {
	type tagged Table1Row
	return json.Marshal(struct {
		tagged
		TimeUS     float64 `json:"time_us"`
		RacyTimeUS float64 `json:"racy_time_us"`
	}{tagged(r), float64(r.Time.Nanoseconds()) / 1e3, float64(r.RacyTime.Nanoseconds()) / 1e3})
}

// table1Runs is how many times RunTable1 analyzes each program; the row
// reports the median wall time (the paper's Table 1 time column).
const table1Runs = 5

// analyzeTimed runs the analysis with xSA table1Runs times, each on a fresh
// analyzer, and returns the result with the median wall time.
func analyzeTimed(prog *lang.Program) (*analysis.Result, time.Duration) {
	var res *analysis.Result
	var times [table1Runs]time.Duration
	for i := range times {
		start := time.Now()
		res = analysis.Analyze(prog, analysis.Options{XSA: true})
		times[i] = time.Since(start)
	}
	slices.Sort(times[:])
	return res, times[table1Runs/2]
}

// RunTable1 analyzes every Table 1 benchmark (non-racy with and without
// xSA, racy where available) and returns the rows in the paper's order.
func RunTable1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, b := range benchsrc.All() {
		stats, err := benchsrc.StatsOf(b.Name)
		if err != nil {
			return nil, err
		}
		prog, err := benchsrc.Source(b.Name, false)
		if err != nil {
			return nil, err
		}
		res, elapsed := analyzeTimed(prog)
		row := Table1Row{
			Name: b.Name, Suite: b.Suite,
			LoC: stats.LoC, Machines: stats.Machines,
			STs: stats.StateTransitions, ABs: stats.ActionBindings,
			Time:     elapsed,
			FPsNoXSA: len(res.BaseViolations),
			FPsXSA:   len(res.Violations),
			Verified: res.Verified(),
			HasRacy:  b.HasRacy,
		}
		if b.HasRacy {
			rprog, err := benchsrc.Source(b.Name, true)
			if err != nil {
				return nil, err
			}
			var rres *analysis.Result
			rres, row.RacyTime = analyzeTimed(rprog)
			row.RacesFound = len(rres.Violations) > 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CheckTable1 compares measured rows against the benchsrc roster (the
// paper's published Table 1 numbers) and returns one human-readable drift
// description per mismatch. An empty result means the analyzer still
// reproduces the paper exactly; psharp-bench -check turns any drift into a
// non-zero exit so CI can gate on it.
func CheckTable1(rows []Table1Row) []string {
	var drift []string
	want := benchsrc.All()
	if len(rows) != len(want) {
		return []string{fmt.Sprintf("row count = %d, want %d", len(rows), len(want))}
	}
	for i, w := range want {
		got := rows[i]
		if got.Name != w.Name {
			drift = append(drift, fmt.Sprintf("row %d: benchmark %q, want %q", i, got.Name, w.Name))
			continue
		}
		if got.FPsNoXSA != w.FPsNoXSA {
			drift = append(drift, fmt.Sprintf("%s: FPs without xSA = %d, want %d", w.Name, got.FPsNoXSA, w.FPsNoXSA))
		}
		if got.FPsXSA != w.FPsXSA {
			drift = append(drift, fmt.Sprintf("%s: FPs with xSA = %d, want %d", w.Name, got.FPsXSA, w.FPsXSA))
		}
		if got.Verified != w.Verified {
			drift = append(drift, fmt.Sprintf("%s: verified = %v, want %v", w.Name, got.Verified, w.Verified))
		}
		if w.HasRacy && !got.RacesFound {
			drift = append(drift, fmt.Sprintf("%s: racy variant not flagged", w.Name))
		}
	}
	return drift
}

// PrintTable1 renders rows like the paper's Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-18s %5s %4s %4s %4s %10s %8s %6s %9s %10s %6s\n",
		"Benchmark", "LoC", "#M", "#ST", "#AB", "Time", "No-xSA", "xSA", "Verified?", "RacyTime", "Races?")
	for _, r := range rows {
		verified := "yes"
		if !r.Verified {
			verified = "NO"
		}
		racyTime, races := "-", "-"
		if r.HasRacy {
			racyTime = fmt.Sprintf("%.3fs", r.RacyTime.Seconds())
			races = "yes"
			if !r.RacesFound {
				races = "NO"
			}
		}
		fmt.Fprintf(w, "%-18s %5d %4d %4d %4d %9.3fs %8d %6d %9s %10s %6s\n",
			r.Name, r.LoC, r.Machines, r.STs, r.ABs, r.Time.Seconds(),
			r.FPsNoXSA, r.FPsXSA, verified, racyTime, races)
	}
}

// SchedulerMode identifies one Table 2 configuration.
type SchedulerMode int

// Table 2 configurations.
const (
	// ModeChessRDOn is the CHESS-like baseline with its happens-before race
	// detector enabled.
	ModeChessRDOn SchedulerMode = iota
	// ModeChessRDOff is the CHESS-like baseline without race detection.
	ModeChessRDOff
	// ModePSharpDFS is the embedded P# DFS scheduler.
	ModePSharpDFS
	// ModePSharpRandom is the embedded P# random scheduler.
	ModePSharpRandom
)

func (m SchedulerMode) String() string {
	switch m {
	case ModeChessRDOn:
		return "CHESS(RD-on)"
	case ModeChessRDOff:
		return "CHESS(RD-off)"
	case ModePSharpDFS:
		return "P#-DFS"
	default:
		return "P#-Random"
	}
}

// Table2Cell is one (benchmark, scheduler) measurement.
type Table2Cell struct {
	Mode         SchedulerMode
	Schedules    int
	SchedPerSec  float64
	MaxSP        int
	BugFound     bool
	BugIteration int
	PercentBuggy float64 // random mode only
}

// Table2Row is one buggy benchmark across all four configurations.
type Table2Row struct {
	Name     string
	Machines int
	Cells    []Table2Cell
}

// Table2Options bounds the exploration (the paper: 10,000 schedules or 5
// minutes, whichever first).
type Table2Options struct {
	Iterations int
	Timeout    time.Duration
	Seed       uint64
	// Workers fans every cell's exploration out over this many parallel
	// workers via sct.RunParallel; 0 or 1 keeps the paper's sequential
	// setup (callers wanting "all cores" pass GOMAXPROCS explicitly).
	// Sharded seed streams keep the explored schedule population identical
	// to the sequential run's.
	Workers int
}

// table2Modes are a row's cells, in column order.
var table2Modes = []SchedulerMode{ModeChessRDOn, ModeChessRDOff, ModePSharpDFS, ModePSharpRandom}

// Validate returns the reason the engine would refuse a cell run under o
// (sct.ParallelOptions.Validate's text), or nil.
func (o Table2Options) Validate() error {
	for _, mode := range table2Modes {
		if err := cellOptions(protocols.Benchmark{}, mode, o).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RunTable2Row measures one buggy benchmark under all four configurations.
func RunTable2Row(name string, opts Table2Options) (Table2Row, error) {
	b, ok := protocols.ByName(name, true)
	if !ok {
		return Table2Row{}, fmt.Errorf("tables: no buggy benchmark %q", name)
	}
	if err := opts.Validate(); err != nil {
		return Table2Row{}, fmt.Errorf("tables: %w", err)
	}
	row := Table2Row{Name: name, Machines: b.Machines}
	for _, mode := range table2Modes {
		row.Cells = append(row.Cells, runCell(b, mode, opts))
	}
	return row, nil
}

// RunTable2 measures all eight buggy protocols.
func RunTable2(opts Table2Options) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range protocols.Names() {
		if _, ok := protocols.ByName(name, true); !ok {
			continue
		}
		row, err := RunTable2Row(name, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// cellOptions is the engine configuration of one Table 2 cell.
func cellOptions(b protocols.Benchmark, mode SchedulerMode, opts Table2Options) sct.ParallelOptions {
	so := sct.Options{
		Iterations:     opts.Iterations,
		Timeout:        opts.Timeout,
		MaxSteps:       b.MaxSteps,
		StopOnFirstBug: true,
		LivelockAsBug:  b.LivelockAsBug,
	}
	switch mode {
	case ModeChessRDOn:
		so.Strategy = sct.NewDFS()
		so.ChessLike = true
		so.RaceDetect = true
	case ModeChessRDOff:
		so.Strategy = sct.NewDFS()
		so.ChessLike = true
	case ModePSharpDFS:
		so.Strategy = sct.NewDFS()
	case ModePSharpRandom:
		so.Strategy = sct.NewRandom(opts.Seed)
		// As the paper does for the random scheduler, keep exploring after
		// a bug to measure the fraction of buggy schedules.
		so.StopOnFirstBug = false
	}
	return sct.ParallelOptions{Options: so, Workers: max(opts.Workers, 1)}
}

func runCell(b protocols.Benchmark, mode SchedulerMode, opts Table2Options) Table2Cell {
	rep := sct.RunParallel(b.Setup, cellOptions(b, mode, opts)).Report
	return Table2Cell{
		Mode:         mode,
		Schedules:    rep.Iterations,
		SchedPerSec:  rep.SchedulesPerSecond(),
		MaxSP:        rep.MaxSchedulingPoints,
		BugFound:     rep.BugFound(),
		BugIteration: rep.FirstBugIteration,
		PercentBuggy: rep.PercentBuggy(),
	}
}

// PrintTable2 renders rows like the paper's Table 2.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-18s %3s | %-13s | %-13s | %-22s | %-28s\n",
		"Benchmark", "#T", "CHESS RD-on", "CHESS RD-off", "P# DFS", "P# Random")
	fmt.Fprintf(w, "%-18s %3s | %6s %6s | %6s %6s | %6s %6s %8s | %6s %8s %7s %6s\n",
		"", "", "sch/s", "bug?", "sch/s", "bug?", "#SP", "sch/s", "bug?", "#SP", "sch/s", "%buggy", "bug?")
	for _, r := range rows {
		found := func(c Table2Cell) string {
			if c.BugFound {
				return fmt.Sprintf("y@%d", c.BugIteration)
			}
			return "no"
		}
		on, off, dfs, rnd := r.Cells[0], r.Cells[1], r.Cells[2], r.Cells[3]
		fmt.Fprintf(w, "%-18s %3d | %6.1f %6s | %6.1f %6s | %6d %6.1f %8s | %6d %8.1f %6.1f%% %6s\n",
			r.Name, r.Machines,
			on.SchedPerSec, found(on),
			off.SchedPerSec, found(off),
			dfs.MaxSP, dfs.SchedPerSec, found(dfs),
			rnd.MaxSP, rnd.SchedPerSec, rnd.PercentBuggy, found(rnd))
	}
}

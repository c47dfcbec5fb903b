package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"github.com/psharp-go/psharp/analysis"
	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/lang"
)

// table1_analysis: Table 1's time column. A round is one pass over the 21
// Table 1 sources (13 non-racy, 8 racy): parse, check, analyse with xSA,
// and compare the violation counts with the roster. No controller code
// runs, so any change to the tester must read "no change" here. The seed
// sets the order in which a pass visits the programs.
type table1 struct {
	scale   int
	sources []table1Source
	// per-program analysis time and violation total of the last traced pass
	slowest    time.Duration
	violations int64
}

type table1Source struct {
	roster benchsrc.Benchmark
	racy   bool
	text   string
	lines  int64
}

func (s table1Source) id() string {
	if s.racy {
		return s.roster.Name + "(racy)"
	}
	return s.roster.Name
}

func setupTable1(seed uint64, scale int) (instance, error) {
	w := &table1{scale: scale}
	for _, b := range benchsrc.All() {
		for _, racy := range []bool{false, true} {
			if racy && !b.HasRacy {
				continue
			}
			text, err := benchsrc.RawSource(b.Name, racy)
			if err != nil {
				return nil, err
			}
			w.sources = append(w.sources, table1Source{b, racy, text, int64(strings.Count(text, "\n"))})
		}
	}
	rand.New(rand.NewPCG(seed, 1)).Shuffle(len(w.sources), func(i, j int) {
		w.sources[i], w.sources[j] = w.sources[j], w.sources[i]
	})
	if err := w.round(nil, newRound(false)); err != nil { // warm-up pass
		return nil, err
	}
	return w, nil
}

func (w *table1) round(tr *tracer, rr *roundResult) error {
	var slowest time.Duration
	var violations int64
	for _, src := range w.sources {
		var prog *lang.Program
		var res *analysis.Result
		var err error
		start := time.Now()
		tr.do("lang.Parse", func() { prog, err = lang.Parse(src.text) })
		if err == nil {
			tr.do("lang.Check", func() { err = lang.Check(prog) })
		}
		if err != nil {
			return fmt.Errorf("table1_analysis: %s: %w", src.id(), err)
		}
		analyzeStart := time.Now()
		tr.do("analysis.Analyze", func() { res = analysis.Analyze(prog, analysis.Options{XSA: true}) })
		end := time.Now()
		if d := end.Sub(analyzeStart); d > slowest {
			slowest = d
		}
		violations += int64(len(res.Violations))
		if drift := src.drift(res); drift != "" {
			return fmt.Errorf("table1_analysis: %s: %s", src.id(), drift)
		}
		rr.add(cell{name: src.id(), ops: 1, steps: src.lines, wall: end.Sub(start)})
	}
	rr.count("violations", violations)
	if tr != nil {
		w.slowest, w.violations = slowest, violations
	}
	return nil
}

// drift compares an analysis result with the Table 1 roster.
func (s table1Source) drift(res *analysis.Result) string {
	if s.racy {
		if len(res.Violations) == 0 {
			return "racy variant not flagged"
		}
		return ""
	}
	b := s.roster
	if got := len(res.BaseViolations); got != b.FPsNoXSA {
		return fmt.Sprintf("false positives without xSA = %d, want %d", got, b.FPsNoXSA)
	}
	if got := len(res.Violations); got != b.FPsXSA {
		return fmt.Sprintf("false positives with xSA = %d, want %d", got, b.FPsXSA)
	}
	if res.Verified() != b.Verified {
		return fmt.Sprintf("verified = %v, want %v", res.Verified(), b.Verified)
	}
	return ""
}

func (w *table1) close() error { return nil }

func (w *table1) layers(tr *tracer, rounds []roundResult, out map[string]float64) error {
	passes := float64(tr.counts()["round"]) // spans come from the traced rounds only
	self := tr.selfTimes()
	out["lang.parse_us_per_pass"] = float64(self["lang.Parse"].Microseconds()) / passes
	out["lang.check_us_per_pass"] = float64(self["lang.Check"].Microseconds()) / passes
	out["analysis.analyze_ms_per_pass"] = float64(self["analysis.Analyze"].Microseconds()) / 1e3 / passes
	out["analysis.slowest_program_ms"] = float64(w.slowest.Microseconds()) / 1e3
	out["analysis.violations_total"] = float64(w.violations)

	walls := make([]float64, len(rounds))
	for i := range rounds {
		walls[i] = float64(rounds[i].wall().Microseconds()) / 1e3
	}
	out["analysis.pass_ms_p50"] = quantile(walls, 0.5)
	out["analysis.pass_ms_p90"] = quantile(walls, 0.9)

	// xSA's share: the same programs analysed with it on and off.
	progs := make([]*lang.Program, len(w.sources))
	for i, src := range w.sources {
		p, err := lang.Parse(src.text)
		if err == nil {
			err = lang.Check(p)
		}
		if err != nil {
			return err
		}
		progs[i] = p
	}
	analyze := func(xsa bool) func() timedPass {
		return func() timedPass {
			start := time.Now()
			for _, p := range progs {
				analysis.Analyze(p, analysis.Options{XSA: xsa})
			}
			return timedPass(time.Since(start))
		}
	}
	tr.do("probe.xsa", func() {
		runs := interleave(scaled(8, w.scale, 1), analyze(true), analyze(false))
		out["analysis.xsa_ms_per_pass"] = float64((runs[0] - runs[1]).elapsed().Microseconds()) / 1e3
	})
	return nil
}

type timedPass time.Duration

func (p timedPass) elapsed() time.Duration { return time.Duration(p) }

package analysis

import (
	"testing"

	"github.com/psharp-go/psharp/lang"
)

// TestAnalyzeAllocCap locks the dense domain's allocation profile: one xSA
// analysis of each of the 21 corpus programs, lowering included, measured
// at 23.3k heap allocations when the cap was set (the map-of-maps domain it
// replaced took 465k: it cloned the whole points-to state at every
// transfer). What is left is the CFG lowering (two thirds) and five slices
// per solved method. A per-transfer or per-node allocation creeping back
// into the solver multiplies the figure and fails here rather than waiting
// for the benchmark.
func TestAnalyzeAllocCap(t *testing.T) {
	const allocCap = 29000 // ~25 % above the measured figure
	var progs []*lang.Program
	for _, src := range corpusSources(t) {
		progs = append(progs, src.program(t))
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, prog := range progs {
			Analyze(prog, Options{XSA: true})
		}
	})
	if allocs > allocCap {
		t.Errorf("xSA analysis of the corpus = %.0f allocations, want <= %d", allocs, allocCap)
	}
	t.Logf("xSA analysis of the corpus: %.0f allocations over %d programs", allocs, len(progs))
}

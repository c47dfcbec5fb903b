package analysis

import (
	"testing"

	"github.com/psharp-go/psharp/lang"
)

// TestAnalyzeAllocCap locks the analysis' allocation profile: one xSA
// analysis of each of the 21 corpus programs, lowering included, measured
// at 4.2k heap allocations when the cap was set (23.3k with the
// string-operand lowering the integer IR replaced: a 256-byte node, its
// pointer slices and a formatted name per temp; 465k with the map-of-maps
// domain before that, which cloned the whole points-to state at every
// transfer). What is left is per lowered method — the Method, its nodes,
// its variables, its index arena, its call sites and events if it has any
// — and per solved unit: the unit, its slab, callees, dirty, and the taint
// rows on first use; then the violations' strings. A per-node allocation
// creeping back into lowering or the solver multiplies the figure and fails
// here rather than waiting for the benchmark.
func TestAnalyzeAllocCap(t *testing.T) {
	const allocCap = 5300 // ~25 % above the measured figure
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

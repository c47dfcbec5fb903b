package sct

import (
	"reflect"

	"github.com/psharp-go/psharp"
)

// RunWithoutCheckpoints is Run with checkpoints off, for the equivalence
// tests: there is no option for it. Options.RaceDetect is one of the
// conditions under which a harness takes no checkpoint (see
// psharp.PrefixResumer); it adds no scheduling point and leaves the state
// cache's skip of the prefix the strategy promises to repeat as it is.
func RunWithoutCheckpoints(setup func(*psharp.Runtime), opts Options) Report {
	opts.RaceDetect = true
	return Run(setup, opts)
}

// FingerprintTrace is the fingerprint Report.DistinctSchedules counts.
var FingerprintTrace = fingerprintTrace

// StrategyTableNames lists the named strategies, every row of the table
// NewStrategy builds from.
func StrategyTableNames() []string {
	names := make([]string, len(strategyTable))
	for i, info := range strategyTable {
		names[i] = info.name
	}
	return names
}

// CoverageCounts reports the coverage counts array of h's runtime, which its
// controller writes at every dispatch: the slots in use and the capacity
// past the last of them, in words.
func CoverageCounts(h *psharp.TestHarness) (slots, pad int) {
	counts := reflect.ValueOf(h).Elem().FieldByName("rt").Elem().FieldByName("cover").FieldByName("counts")
	return counts.Len(), counts.Cap() - counts.Len()
}

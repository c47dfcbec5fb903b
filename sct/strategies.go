package sct

import (
	"fmt"
	"strings"
)

// strategyInfo is one row of the table of named strategies. Every place that
// names a strategy — psharp-test -strategy, portfolio specs, worker labels,
// ParallelOptions.Validate — reads this table.
type strategyInfo struct {
	name string
	// replays: a depth-first search of the schedule tree, the only kind
	// the state cache can be sound under (it completes a state's owning
	// subtree before another prefix revisits it). Replaying each prefix, it
	// refuses fault injection, whose faults differ from one iteration to the
	// next. bounded: the state cache is not sound under its delay bound.
	replays, bounded bool

	build func(seed uint64, steps int) Strategy
	is    func(Strategy) bool
}

func isType[T Strategy](s Strategy) bool { _, ok := s.(T); return ok }

var strategyTable = []strategyInfo{
	{name: "random", is: isType[*Random],
		build: func(seed uint64, _ int) Strategy { return NewRandom(seed) }},
	{name: "pct", is: isType[*PCT],
		build: func(seed uint64, steps int) Strategy { return NewPCT(seed, 3, steps) }},
	{name: "delay", replays: true, bounded: true, is: isType[*DelayBounding],
		build: func(uint64, int) Strategy { return NewDelayBounding(0, 2, 0) }},
	{name: "dfs", replays: true, is: isType[*DFS],
		build: func(uint64, int) Strategy { return NewDFS() }},
	{name: "dpor", replays: true, is: isType[*DPOR],
		build: func(uint64, int) Strategy { return NewDPOR() }},
}

// infoOf returns the table row s is an instance of; a strategy from outside
// the table gets the zero row (no capability assumed).
func infoOf(s Strategy) strategyInfo {
	for _, info := range strategyTable {
		if info.is(s) {
			return info
		}
	}
	return strategyInfo{}
}

// strategyName labels a strategy for sub-reports and progress lines.
func strategyName(s Strategy) string {
	if name := infoOf(s).name; name != "" {
		return name
	}
	return fmt.Sprintf("%T", s)
}

// strategyNames lists the table's names for error messages: "a, b or c".
func strategyNames() string {
	names := make([]string, len(strategyTable))
	for i, info := range strategyTable {
		names[i] = info.name
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}

// NewStrategy builds a strategy by name: random, pct, delay, dfs or dpor.
// PCT (depth 3) sizes its change points to maxSteps (0 falls back to 1000
// expected steps); delay-bounding has a budget of 2 delays. It is the
// constructor behind psharp-test -strategy and behind every member of
// ParsePortfolio.
func NewStrategy(name string, seed uint64, maxSteps int) (Strategy, error) {
	if maxSteps <= 0 {
		maxSteps = 1000
	}
	for _, info := range strategyTable {
		if info.name == name {
			return info.build(seed, maxSteps), nil
		}
	}
	return nil, fmt.Errorf("sct: unknown strategy %q (want %s)", name, strategyNames())
}

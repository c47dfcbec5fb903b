package sct

import (
	"fmt"
	"strings"
)

// PortfolioMember is one named strategy of a heterogeneous portfolio.
type PortfolioMember struct {
	// Name labels the member in per-worker sub-reports ("random", "pct", ...).
	Name string
	// Strategy is the member's base strategy. When more workers than
	// portfolio members run, its CloneForWorker shards the member across
	// its workers exactly like a homogeneous strategy.
	Strategy Strategy
}

// Portfolio assigns heterogeneous strategies to parallel workers: worker w
// out of n runs member w mod len(members), and the workers sharing a member
// shard that member's search space via CloneForWorker. Mixing memoryless
// strategies (random) with guarantee-carrying ones (PCT, delay-bounding)
// and systematic ones (DFS) hedges against any single strategy being a poor
// fit for the program under test — the standard portfolio argument.
type Portfolio struct {
	members []PortfolioMember
}

// NewPortfolio builds a portfolio; at least one member is required and
// every member needs a name and a strategy.
func NewPortfolio(members ...PortfolioMember) (*Portfolio, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("sct: portfolio needs at least one member")
	}
	for i, m := range members {
		if m.Name == "" || m.Strategy == nil {
			return nil, fmt.Errorf("sct: portfolio member %d needs a name and a strategy", i)
		}
	}
	return &Portfolio{members: append([]PortfolioMember(nil), members...)}, nil
}

// Size returns the number of members.
func (p *Portfolio) Size() int { return len(p.members) }

// ParsePortfolio builds a portfolio from a comma-separated member spec such
// as "random,pct,delay,dfs" or "random,random,pct"; "default" is the
// paper's roster, random, PCT (depth 3), delay-bounded search (budget 2) and
// DFS. Members are the names NewStrategy accepts, built by NewStrategy from
// the same maxSteps. Randomized members derive distinct seeds from the base
// seed by member position (member 0 keeps the base seed, so a one-member
// portfolio is the homogeneous run of that strategy); the searches (delay,
// dfs, dpor) draw nothing, so a search named twice explores its tree twice.
func ParsePortfolio(spec string, seed uint64, maxSteps int) (*Portfolio, error) {
	if strings.TrimSpace(spec) == "default" {
		spec = "random,pct,delay,dfs"
	}
	var members []PortfolioMember
	for i, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("sct: empty portfolio member in %q", spec)
		}
		// Distinct members get decorrelated seed streams even when the
		// same strategy appears twice.
		s, err := NewStrategy(name, seed+uint64(i)*0xd1342543de82ef95, maxSteps)
		if err != nil {
			return nil, fmt.Errorf("sct: unknown portfolio member %q (want %s)", name, strategyNames())
		}
		members = append(members, PortfolioMember{Name: name, Strategy: s})
	}
	return NewPortfolio(members...)
}

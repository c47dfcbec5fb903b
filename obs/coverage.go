package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Transition identifies one (machine type, machine state, event) triple —
// the unit of state-transition coverage: a triple is covered once some
// execution actually dispatched that event in that state of that machine
// type.
type Transition struct {
	Machine string `json:"machine"`
	State   string `json:"state"`
	Event   string `json:"event"`
}

// StateEventCoverage is a concurrent set of exercised transitions with a
// hit count per transition. Each triple is interned exactly once, under the
// write lock, as a TransitionCounter. A caller that dispatches the same
// transitions over and over resolves their counters once (Counter) and adds
// to them directly; Hit resolves on every call — a read lock and one map
// lookup with a comparable struct key (no boxing, no string building) — and
// then adds one. Either way recording is allocation-free in steady state.
// The zero value is ready to use.
type StateEventCoverage struct {
	mu       sync.RWMutex
	index    map[Transition]*TransitionCounter
	distinct atomic.Int64
}

// TransitionCounter is the hit count of one transition of a
// StateEventCoverage. The transition is covered from the first add on.
type TransitionCounter struct {
	n   atomic.Int64
	set *StateEventCoverage
}

// Add records n more dispatches of the transition; n must be positive.
func (t *TransitionCounter) Add(n int64) {
	if t.n.Add(n) == n {
		t.set.distinct.Add(1) // the first add: the transition is covered now
	}
}

// Hit records one dispatch of event in (machine, state).
func (c *StateEventCoverage) Hit(machine, state, event string) {
	c.Counter(Transition{Machine: machine, State: state, Event: event}).Add(1)
}

// Counter returns the counter of transition k, interning k if it is new. It
// adds nothing: k is not covered until something is added to its counter.
func (c *StateEventCoverage) Counter(k Transition) *TransitionCounter {
	c.mu.RLock()
	t, ok := c.index[k]
	c.mu.RUnlock()
	if ok {
		return t
	}
	return c.intern(k)
}

// intern registers a first-seen transition (the only allocating path).
func (c *StateEventCoverage) intern(k Transition) *TransitionCounter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.index[k]; ok {
		return t // another goroutine interned it first
	}
	if c.index == nil {
		c.index = make(map[Transition]*TransitionCounter)
	}
	t := &TransitionCounter{set: c}
	c.index[k] = t
	return t
}

// Distinct returns the number of distinct transitions covered so far. It is
// a single atomic load, cheap enough for per-sample curve points.
func (c *StateEventCoverage) Distinct() int64 { return c.distinct.Load() }

// TransitionCount is one covered transition with its hit count.
type TransitionCount struct {
	Transition
	Count int64 `json:"count"`
}

// Snapshot returns all covered transitions sorted by (machine, state,
// event). It allocates and sorts, so call it off the measured path.
func (c *StateEventCoverage) Snapshot() []TransitionCount {
	c.mu.RLock()
	out := make([]TransitionCount, 0, len(c.index))
	for k, t := range c.index {
		if n := t.n.Load(); n > 0 {
			out = append(out, TransitionCount{Transition: k, Count: n})
		}
	}
	c.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Machine != y.Machine {
			return x.Machine < y.Machine
		}
		if x.State != y.State {
			return x.State < y.State
		}
		return x.Event < y.Event
	})
	return out
}

package sct

import (
	"slices"

	"github.com/psharp-go/psharp"
)

// PCT implements the probabilistic concurrency testing scheduler of
// Burckhardt et al. (ASPLOS 2010), the paper's reference [4], adapted to
// event-level scheduling: every machine gets a random priority when it is
// first seen; at each scheduling point the highest-priority enabled machine
// runs; at d-1 randomly chosen scheduling points (the "change points") the
// currently highest-priority enabled machine is demoted below every other.
// PCT gives probabilistic detection guarantees for bugs of depth <= d.
// Controlled choices stay uniformly random (PCT only prioritizes scheduling).
//
// A decision reads no map: machines are numbered densely from 1 in creation
// order (psharp.MachineID.Seq), so priorities live in a slice by number, and
// the change points in a sorted slice passed in step order.
type PCT struct {
	seedStream
	depth int
	steps int // expected schedule length for change-point placement

	// prio is the priority of machine Seq-1, 0 for one not seen yet this
	// iteration: initial priorities lie above depth+1 and demotions hand out
	// depth, depth-1, … 1, so a priority is never 0.
	prio    []uint64
	low     uint64 // the next demotion hands out low-1
	changes []int  // change points, sorted; duplicates are one point
	next    int    // index into changes of the first point not passed yet
	step    int
	_       cacheLinePad
}

// NewPCT returns a PCT strategy with bug depth d over schedules of roughly
// expectedSteps scheduling points.
func NewPCT(seed uint64, d, expectedSteps int) *PCT {
	if d < 1 {
		d = 1
	}
	if expectedSteps < 1 {
		expectedSteps = 1
	}
	return newPCT(newSeedStream(seed), d, expectedSteps)
}

func newPCT(stream seedStream, d, steps int) *PCT {
	// Room for the machines of every Table 2 protocol: one allocation.
	return &PCT{seedStream: stream, depth: d, steps: steps, prio: make([]uint64, 0, 16)}
}

// CloneForWorker shards the per-iteration priority/change-point seed
// stream: the clone's local iteration i is global iteration
// worker + i*workers of the same base seed, so a sharded parallel run
// explores exactly the sequential run's schedule population.
func (s *PCT) CloneForWorker(worker, workers int) Strategy {
	return newPCT(s.shard(worker, workers), s.depth, s.steps)
}

// PrepareIteration re-randomizes priorities and change points.
func (s *PCT) PrepareIteration(iter int) bool {
	s.rewind(iter, 0)
	s.prio = s.prio[:0]
	s.low = uint64(s.depth) + 1 // priorities 1..depth are demotion slots
	s.changes = s.changes[:0]
	for i := 0; i < s.depth-1; i++ {
		s.changes = append(s.changes, s.NextInt(s.steps))
	}
	slices.Sort(s.changes)
	s.next = 0
	s.step = 0
	return true
}

func (s *PCT) priority(id psharp.MachineID) uint64 {
	i := int(id.Seq - 1)
	for len(s.prio) <= i {
		s.prio = append(s.prio, 0)
	}
	p := s.prio[i]
	if p == 0 {
		// Initial priorities all sit above the demotion band.
		p = uint64(s.depth) + 2 + s.rng.Next()%1_000_000
		s.prio[i] = p
	}
	return p
}

func (s *PCT) highest(enabled []psharp.MachineID) psharp.MachineID {
	best, bestP := enabled[0], s.priority(enabled[0])
	for _, id := range enabled[1:] {
		if p := s.priority(id); p > bestP {
			best, bestP = id, p
		}
	}
	return best
}

// changePoint reports whether the current step is a change point.
func (s *PCT) changePoint() bool {
	for s.next < len(s.changes) && s.changes[s.next] < s.step {
		s.next++
	}
	return s.next < len(s.changes) && s.changes[s.next] == s.step
}

// NextMachine runs the highest-priority enabled machine, demoting it first
// if this step is a change point.
func (s *PCT) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	best := s.highest(enabled)
	if s.changePoint() && s.low > 1 {
		s.low--
		s.prio[best.Seq-1] = s.low
		best = s.highest(enabled)
	}
	s.step++
	return best
}

// Decide implements psharp.DecisionStrategy through the three methods.
func (s *PCT) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind != psharp.ChoiceMachine {
		s.decideValue(c, d)
		return
	}
	d.Kind, d.Machine = psharp.DecisionSchedule, s.NextMachine(c.Current, c.Enabled).Ref()
}

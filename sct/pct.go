package sct

import "github.com/psharp-go/psharp"

// PCT implements the probabilistic concurrency testing scheduler of
// Burckhardt et al. (ASPLOS 2010), the paper's reference [4], adapted to
// event-level scheduling: every machine gets a random priority when it is
// first seen; at each scheduling point the highest-priority enabled machine
// runs; at d-1 randomly chosen scheduling points (the "change points") the
// currently highest-priority enabled machine is demoted below every other.
// PCT gives probabilistic detection guarantees for bugs of depth <= d.
// Controlled choices stay uniformly random (PCT only prioritizes scheduling).
type PCT struct {
	seedStream
	depth int
	steps int // expected schedule length for change-point placement

	priorities   map[psharp.MachineID]uint64
	low          uint64 // next demotion priority (counts down)
	changePoints map[int]bool
	step         int
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
	return &PCT{seedStream: stream, depth: d, steps: steps,
		priorities: make(map[psharp.MachineID]uint64), changePoints: make(map[int]bool)}
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
	clear(s.priorities)
	s.low = uint64(s.depth) // priorities below depth are demotion slots
	clear(s.changePoints)
	for i := 0; i < s.depth-1; i++ {
		s.changePoints[s.NextInt(s.steps)] = true
	}
	s.step = 0
	return true
}

func (s *PCT) priority(id psharp.MachineID) uint64 {
	p, ok := s.priorities[id]
	if !ok {
		// Initial priorities all sit above the demotion band.
		p = uint64(s.depth) + 1 + s.rng.next()%1_000_000
		s.priorities[id] = p
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

// NextMachine runs the highest-priority enabled machine, demoting it first
// if this step is a change point.
func (s *PCT) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	best := s.highest(enabled)
	if s.changePoints[s.step] && s.low > 0 {
		s.low--
		s.priorities[best] = s.low
		best = s.highest(enabled)
	}
	s.step++
	return best
}

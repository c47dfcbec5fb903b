package sct

import "github.com/psharp-go/psharp"

// RandomFair is the fair variant of the random scheduler, the companion
// CHESS-style recipe that makes liveness checking sound (Musuvathi &
// Qadeer's fair stateless model checking, applied to the paper's monitor
// specifications): each iteration starts with a uniformly random prefix —
// which explores the event reorderings that trigger a liveness bug — and
// then switches to fair round-robin over the enabled machines, so every
// machine that could discharge a pending hot-state obligation is guaranteed
// to run. Under an unfair scheduler a monitor can stay hot merely because
// the scheduler starved the machine that would cool it down; under
// RandomFair's fair suffix, a monitor that stays hot is a genuine liveness
// violation, which is what keeps the zero-false-positive replay guarantee
// intact for BugLiveness. Pair it with psharp.TestConfig.LivenessTemperature
// set above prefix plus a few round-robin cycles, so the temperature can
// only cross the threshold inside the fair region.
//
// Like Random, RandomFair is deterministic given its seed and shards its
// seed stream across parallel workers, so a sharded parallel run explores
// the same schedule population as the sequential run.
type RandomFair struct {
	seedStream
	prefix int

	steps   int
	lastSeq uint64
	_       cacheLinePad
}

// NewRandomFair returns a fair random strategy: uniformly random for the
// first prefix scheduling decisions of every iteration, fair round-robin
// afterwards. A prefix of 0 schedules round-robin from the first decision.
func NewRandomFair(seed uint64, prefix int) *RandomFair {
	if prefix < 0 {
		prefix = 0
	}
	return &RandomFair{seedStream: newSeedStream(seed), prefix: prefix}
}

// CloneForWorker shards the seed stream exactly like Random: the clone's
// local iteration i is global iteration worker + i*workers.
func (s *RandomFair) CloneForWorker(worker, workers int) Strategy {
	return &RandomFair{seedStream: s.shard(worker, workers), prefix: s.prefix}
}

// PrepareIteration reseeds the stream for local iteration iter and rewinds
// the fairness bookkeeping. RandomFair never exhausts its search space.
func (s *RandomFair) PrepareIteration(iter int) bool {
	s.rewind(iter, 0)
	s.steps = 0
	s.lastSeq = 0
	return true
}

// NextMachine picks uniformly at random during the prefix, then fairly:
// the enabled machine with the smallest creation index greater than the
// last scheduled one, wrapping around. The enabled slice is sorted by
// creation order, so the round-robin is a single scan, and every machine
// that stays enabled is scheduled at least once per cycle — strong fairness
// over the enabled set.
func (s *RandomFair) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	s.steps++
	if s.steps <= s.prefix {
		id := enabled[s.NextInt(len(enabled))]
		s.lastSeq = id.Seq
		return id
	}
	for _, id := range enabled {
		if id.Seq > s.lastSeq {
			s.lastSeq = id.Seq
			return id
		}
	}
	id := enabled[0] // wrap: start the next round-robin cycle
	s.lastSeq = id.Seq
	return id
}

// Decide implements psharp.DecisionStrategy through the three methods.
func (s *RandomFair) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind != psharp.ChoiceMachine {
		s.decideValue(c, d)
		return
	}
	d.Kind, d.Machine = psharp.DecisionSchedule, s.NextMachine(c.Current, c.Enabled)
}

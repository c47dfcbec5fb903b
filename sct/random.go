package sct

import "github.com/psharp-go/psharp"

// Random is the paper's random scheduler: after each scheduling point it
// picks a machine uniformly at random from the enabled set, and resolves
// controlled nondeterministic choices uniformly. It keeps no memory of
// explored schedules, which is exactly what lets nondeterministic
// environment machines stay random (Section 6.2).
//
// Random is deterministic given its seed, and a sharded parallel run
// explores exactly the same schedule population as the sequential run with
// the same seed and budget: see seedStream.
type Random struct {
	seedStream
	_ cacheLinePad
}

// NewRandom returns a random strategy with the given base seed.
func NewRandom(seed uint64) *Random {
	return &Random{seedStream: newSeedStream(seed)}
}

// CloneForWorker shards the seed stream: the clone's local iteration i is
// global iteration worker + i*workers of the same base seed.
func (s *Random) CloneForWorker(worker, workers int) Strategy {
	return &Random{seedStream: s.shard(worker, workers)}
}

// PrepareIteration reseeds the stream for local iteration iter. Random
// never exhausts its search space.
func (s *Random) PrepareIteration(iter int) bool {
	s.rewind(iter, 0)
	return true
}

// NextMachine picks uniformly from the enabled machines.
func (s *Random) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	return enabled[s.NextInt(len(enabled))]
}

// Decide implements psharp.DecisionStrategy through the three methods.
func (s *Random) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind != psharp.ChoiceMachine {
		s.decideValue(c, d)
		return
	}
	d.Kind, d.Machine = psharp.DecisionSchedule, s.NextMachine(c.Current, c.Enabled)
}

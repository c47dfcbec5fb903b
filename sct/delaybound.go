package sct

import "github.com/psharp-go/psharp"

// DelayBounding implements randomized delay-bounded scheduling (Emmi,
// Qadeer, Rakamarić, POPL 2011 — the paper's reference [9]): the underlying
// scheduler is deterministic (round-robin in creation order), and the
// strategy spends at most `budget` delays per iteration; a delay skips the
// machine the deterministic scheduler would run and moves to the next one.
// Delay positions are chosen uniformly over the expected schedule length.
type DelayBounding struct {
	seedStream
	budget int
	steps  int

	delayAt   map[int]bool
	remaining int
	step      int
	_         cacheLinePad
}

// NewDelayBounding returns a delay-bounding strategy with the given delay
// budget over schedules of roughly expectedSteps scheduling points.
func NewDelayBounding(seed uint64, budget, expectedSteps int) *DelayBounding {
	if budget < 0 {
		budget = 0
	}
	if expectedSteps < 1 {
		expectedSteps = 1
	}
	return &DelayBounding{seedStream: newSeedStream(seed), budget: budget, steps: expectedSteps, delayAt: make(map[int]bool)}
}

// CloneForWorker shards the per-iteration delay-placement seed stream: the
// clone's local iteration i is global iteration worker + i*workers of the
// same base seed, so a sharded parallel run explores exactly the sequential
// run's schedule population.
func (s *DelayBounding) CloneForWorker(worker, workers int) Strategy {
	return &DelayBounding{seedStream: s.shard(worker, workers), budget: s.budget, steps: s.steps, delayAt: make(map[int]bool)}
}

// PrepareIteration re-randomizes the delay positions.
func (s *DelayBounding) PrepareIteration(iter int) bool {
	s.rewind(iter, 0)
	clear(s.delayAt)
	for i := 0; i < s.budget; i++ {
		s.delayAt[s.NextInt(s.steps)] = true
	}
	s.remaining = s.budget
	s.step = 0
	return true
}

// NextMachine continues with the current machine (round-robin order) unless
// this step spends a delay.
func (s *DelayBounding) NextMachine(current psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	// Deterministic base order: first enabled machine at or after current.
	idx := 0
	for i, id := range enabled {
		if id.Seq >= current.Seq {
			idx = i
			break
		}
	}
	if s.delayAt[s.step] && s.remaining > 0 {
		s.remaining--
		idx = (idx + 1) % len(enabled)
	}
	s.step++
	return enabled[idx]
}

// Decide implements psharp.DecisionStrategy through the three methods.
func (s *DelayBounding) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind != psharp.ChoiceMachine {
		s.decideValue(c, d)
		return
	}
	d.Kind, d.Machine = psharp.DecisionSchedule, s.NextMachine(c.Current, c.Enabled)
}

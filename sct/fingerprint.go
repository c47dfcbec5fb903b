package sct

import (
	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/splitmix"
)

// Schedule fingerprinting: a 64-bit hash over the decision trace of one
// iteration. Two iterations that made the same scheduling and nondeterminism
// decisions have the same fingerprint, so the engine can report how many
// *distinct* schedules a run explored — which is the honest coverage metric
// once many workers explore concurrently (sharded seed streams never collide
// by construction, but portfolio members and the paper's memoryless random
// scheduler both revisit schedules).
//
// Fingerprints are journaled (journal.Version names the function that made
// them): changing what fingerprintTrace returns for a trace is a journal
// format change.

// fingerprintTrace hashes a decision trace, one word per decision: the
// decision's kind in the low two bits and, above them, what was decided —
// the machine's sequence number, the boolean, the integer, or the fault's
// kind, restart and keep-mailbox bits and crash target. A machine's sequence
// number is its creation order under the serialized runtime, so within one
// campaign it names the machine and the type name adds nothing. Each word is
// folded in by a multiply and an xor-shift, both invertible, so traces that
// differ in one decision never collide.
func fingerprintTrace(t *psharp.Trace) uint64 {
	const mul = splitmix.Golden
	h := uint64(len(t.Decisions))
	for i := range t.Decisions {
		d := &t.Decisions[i]
		var v uint64
		switch d.Kind {
		case psharp.DecisionSchedule:
			v = d.Machine.Seq
		case psharp.DecisionBool:
			if d.Bool {
				v = 1
			}
		case psharp.DecisionInt:
			v = uint64(d.Int)
		case psharp.DecisionFault:
			f := &d.Fault
			v = uint64(f.Kind)
			if f.Kind == psharp.FaultCrash {
				if f.Restart {
					v |= 1 << 3
				}
				if f.PreserveMailbox {
					v |= 1 << 4
				}
				v |= f.Machine.Seq << 5
			}
		}
		h = (h ^ (v<<2 | uint64(d.Kind))) * mul
		h ^= h >> 32
	}
	return h
}

// fingerprintSet is the set of schedule fingerprints a campaign has run.
type fingerprintSet struct{ shardedTable[struct{}] }

// insert adds fp and reports whether it was new.
func (s *fingerprintSet) insert(fp uint64) bool {
	shard := s.shard(fp)
	shard.mu.Lock()
	_, dup := shard.m[fp]
	if !dup {
		shard.put(fp, struct{}{})
	}
	shard.mu.Unlock()
	if !dup {
		s.keys.Add(1)
	}
	return !dup
}

package sct

import (
	"sync"
	"sync/atomic"

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

// fingerprintShards keeps lock contention negligible relative to the cost
// of executing a schedule; it must be a power of two.
const fingerprintShards = 64

// fingerprintSet is a sharded concurrent set of schedule fingerprints. The
// zero value is ready to use. Insertion takes one short shard-local
// critical section; workers touching different shards do not contend.
type fingerprintSet struct {
	shards [fingerprintShards]struct {
		mu   sync.Mutex
		seen map[uint64]struct{}
	}
	// distinct is the set's size, so that progress snapshots, growth-curve
	// samples and journal checkpoints read it without taking the shard locks.
	distinct atomic.Int64
}

// insert adds fp and reports whether it was new.
func (s *fingerprintSet) insert(fp uint64) bool {
	shard := &s.shards[fp&(fingerprintShards-1)]
	shard.mu.Lock()
	if shard.seen == nil {
		shard.seen = make(map[uint64]struct{})
	}
	_, dup := shard.seen[fp]
	if !dup {
		shard.seen[fp] = struct{}{}
	}
	shard.mu.Unlock()
	if !dup {
		s.distinct.Add(1)
	}
	return !dup
}

// size returns the number of distinct fingerprints inserted.
func (s *fingerprintSet) size() int { return int(s.distinct.Load()) }

package sct

import (
	"fmt"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/splitmix"
)

// seedStream is the randomness of a seeded strategy: one SplitMix64 stream
// per global iteration of a base seed, so a bug found at global iteration g
// can be re-found without a trace. A worker's stream (shard) maps its local
// iterations onto the global iterations {worker, worker+workers, ...}, so a
// sharded parallel run draws exactly what the sequential run with the same
// seed and budget draws. Its NextBool and NextInt are the embedding
// strategy's: controlled choices are resolved uniformly, and so is its
// cursor: the iteration count alone (countCursor).
type seedStream struct {
	countCursor
	seed   uint64
	offset int
	stride int
	rng    splitmix.Source
}

func newSeedStream(seed uint64) seedStream { return seedStream{seed: seed}.shard(0, 1) }

// shard returns the stream of worker among workers, of the same base seed.
func (s seedStream) shard(worker, workers int) seedStream {
	return seedStream{seed: s.seed, offset: worker, stride: workers, rng: splitmix.Source{State: s.seed}}
}

// rewind restarts the stream for local iteration iter in place. Streams of
// one seed that must be independent of each other differ in salt.
func (s *seedStream) rewind(iter int, salt uint64) {
	g := uint64(s.offset) + uint64(iter)*uint64(s.stride)
	s.rng.State = s.seed + salt + g*splitmix.Golden
}

// NextBool resolves a controlled boolean choice uniformly.
func (s *seedStream) NextBool() bool { return s.rng.Next()&1 == 1 }

// NextInt resolves a controlled integer choice uniformly; n must be positive.
func (s *seedStream) NextInt(n int) int {
	if n <= 0 {
		panic("sct: NextInt requires n > 0")
	}
	return int(s.rng.Next() % uint64(n))
}

// decideValue answers, for a seeded strategy's Decide, a query that is not a
// machine choice: a controlled choice uniformly, a fault query with none.
func (s *seedStream) decideValue(c *psharp.Choice, d *psharp.Decision) {
	switch c.Kind {
	case psharp.ChoiceBool:
		d.Kind, d.Bool = psharp.DecisionBool, s.NextBool()
	case psharp.ChoiceInt:
		d.Kind, d.Int = psharp.DecisionInt, int32(s.NextInt(c.N))
	case psharp.ChoiceFault:
		d.Kind = psharp.DecisionFault
	default:
		panic(fmt.Sprintf("psharp: unknown choice kind %d", c.Kind))
	}
}

package sct

import (
	"fmt"

	"github.com/psharp-go/psharp"
)

// splitMix64 is a small, fast, deterministic PRNG (Steele et al.,
// "Fast splittable pseudorandom number generators"). The testing strategies
// must be reproducible from a seed alone, so they cannot use math/rand's
// global state.
type splitMix64 struct{ state uint64 }

// golden64 is 2^64/φ: consecutive multiples of it are spread evenly over the
// 64-bit words, which is what splitMix64's increment, the distance between
// the streams of consecutive iterations and a hash multiplier all want.
const golden64 = 0x9e3779b97f4a7c15

func (r *splitMix64) next() uint64 {
	r.state += golden64
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seedStream is the randomness of a seeded strategy: one splitMix64 stream
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
	rng    splitMix64
}

func newSeedStream(seed uint64) seedStream { return seedStream{seed: seed}.shard(0, 1) }

// shard returns the stream of worker among workers, of the same base seed.
func (s seedStream) shard(worker, workers int) seedStream {
	return seedStream{seed: s.seed, offset: worker, stride: workers, rng: splitMix64{s.seed}}
}

// rewind restarts the stream for local iteration iter in place. Streams of
// one seed that must be independent of each other differ in salt.
func (s *seedStream) rewind(iter int, salt uint64) {
	g := uint64(s.offset) + uint64(iter)*uint64(s.stride)
	s.rng.state = s.seed + salt + g*golden64
}

// NextBool resolves a controlled boolean choice uniformly.
func (s *seedStream) NextBool() bool { return s.rng.next()&1 == 1 }

// NextInt resolves a controlled integer choice uniformly; n must be positive.
func (s *seedStream) NextInt(n int) int {
	if n <= 0 {
		panic("sct: NextInt requires n > 0")
	}
	return int(s.rng.next() % uint64(n))
}

// decideValue answers, for a seeded strategy's Decide, a query that is not a
// machine choice: a controlled choice uniformly, a fault query with none.
func (s *seedStream) decideValue(c *psharp.Choice, d *psharp.Decision) {
	switch c.Kind {
	case psharp.ChoiceBool:
		d.Kind, d.Bool = psharp.DecisionBool, s.NextBool()
	case psharp.ChoiceInt:
		d.Kind, d.Int = psharp.DecisionInt, s.NextInt(c.N)
	case psharp.ChoiceFault:
		d.Kind = psharp.DecisionFault
	default:
		panic(fmt.Sprintf("psharp: unknown choice kind %d", c.Kind))
	}
}

// Package splitmix is SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the
// generator of sct's seeded strategies, the .psl random scheduler and the
// production runtime's choices, and the finalizer of the state hash.
package splitmix

// Golden is 2^64/φ: consecutive multiples of it are spread evenly over the
// 64-bit words, which is what the stream's increment, the distance between
// the streams of consecutive iterations and a hash multiplier all want.
const Golden = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 finalizer, a bijection of the 64-bit words.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is one SplitMix64 stream: its State advances by Golden at every
// draw, and the draw is the new State mixed. The zero Source is the stream
// of seed 0.
type Source struct{ State uint64 }

// Next advances the stream and returns its next word.
func (s *Source) Next() uint64 {
	s.State += Golden
	return Mix(s.State)
}

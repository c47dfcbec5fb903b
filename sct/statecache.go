package sct

// stateCache is the hashed global-state cache behind Options.StateCache: a
// sharded map from global-state hash to the decision prefix that owns it.
// The controller consults it at every scheduling point; a revisit through
// a different prefix prunes the iteration (IterationResult.Pruned), so the
// engine stops spending schedule budget re-exploring a subtree another
// prefix already covers.
//
// Ownership semantics make this sound for depth-first strategies (DFS,
// DPOR) without recording full states:
//
//   - First visit: the (prefix, depth) pair that reached the state becomes
//     its owner; never pruned.
//   - Revisit through the owning prefix (the strategy replaying its way
//     back down to its frontier): never pruned — replay must reach the
//     frontier.
//   - Revisit through a different prefix at depth >= the owner's: pruned.
//     Depth-first enumeration finishes the owner's subtree before any
//     lexicographically later prefix reaches the state, and a deeper
//     revisit can only reach a depth-bounded subset of what the owner
//     explored, so nothing is lost.
//   - Revisit through a different prefix at a *shallower* depth: the new
//     prefix takes over ownership and the iteration continues — under a depth
//     bound (Options.MaxSteps) the shallower occurrence reaches strictly
//     more of the state's subtree than the owner could.
//
// Under non-systematic strategies (Random, PCT, ...) no such completion
// order exists and pruning would silently drop coverage; the engine
// refuses the combination.
type stateCache struct{ shardedTable[stateOwner] }

type stateOwner struct {
	prefix uint64
	depth  int32
}

// Visit implements psharp.StateCache.
func (c *stateCache) Visit(state, prefix uint64, depth int) bool {
	s := c.shard(state)
	s.mu.Lock()
	o, ok := s.m[state]
	if !ok {
		s.put(state, stateOwner{prefix: prefix, depth: int32(depth)})
		s.mu.Unlock()
		c.keys.Add(1)
		return false
	}
	if o.prefix == prefix {
		s.mu.Unlock()
		return false
	}
	if int(o.depth) <= depth {
		s.mu.Unlock()
		return true
	}
	s.m[state] = stateOwner{prefix: prefix, depth: int32(depth)}
	s.mu.Unlock()
	return false
}

// size returns the number of distinct global states recorded; 0 for the nil
// cache of a run without one.
func (c *stateCache) size() int {
	if c == nil {
		return 0
	}
	return c.shardedTable.size()
}

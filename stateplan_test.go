package psharp_test

// Tests for the state plans (stateplan.go): the one walker over user state
// that both hashes it for a StateCache and copies it for a checkpoint. The
// names start with TestStatePlan so CI's "DPOR + state cache suite" step runs
// them under the race detector.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// chain is a linked list: n nodes deep, the last one holding leaf.
type chain struct {
	Next *chain
	Leaf int
}

func chainOf(n, leaf int) *chain {
	c := &chain{Leaf: leaf}
	for i := 1; i < n; i++ {
		c = &chain{Next: c}
	}
	return c
}

type pairOf struct{ A, B *int }

// holder is a static machine whose whole state is one value.
type holder struct {
	psharp.StaticBase
	V any
}

func (*holder) ConfigureType(sc *psharp.Schema) {
	sc.Start("Hold").OnEventDo(&evBallot{}, func(*psharp.Context, psharp.Event) {})
}

// holding is a one-machine program whose machine's logic holds v.
func holding(v any) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Holder", func() psharp.Machine { return &holder{V: v} })
		if err := r.SendEvent(r.MustCreate("Holder", nil), &evBallot{}); err != nil {
			panic(err)
		}
	}
}

// hashHolding is the global-state hash the controller computes, at its first
// scheduling point, of the program holding v.
func hashHolding(t *testing.T, v any) uint64 {
	t.Helper()
	cache := &firstState{}
	dfs := sct.NewDFS()
	dfs.PrepareIteration(0)
	res := psharp.RunTest(holding(v), psharp.TestConfig{Strategy: dfs, StateCache: cache})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return cache.hash
}

// TestStatePlanHashSeesDeepLongAndAliased: what the reflective hash this
// walker replaced cut off — everything past the 128th element of a slice,
// everything below eight levels of nesting, and whether two pointers are one
// — now tells two states apart. Hashed alike, the second of each pair to be
// reached had its subtree pruned as already covered.
func TestStatePlanHashSeesDeepLongAndAliased(t *testing.T) {
	long := func(last int) []int {
		s := make([]int, 200)
		s[199] = last
		return s
	}
	one, other := 7, 7
	for _, tc := range []struct {
		name string
		a, b any
	}{
		{"slices that differ at element 199", long(1), long(2)},
		{"lists that differ twelve levels down", chainOf(12, 1), chainOf(12, 2)},
		{"two pointers to one int and to two equal ints", pairOf{&one, &one}, pairOf{&one, &other}},
	} {
		a, again, b := hashHolding(t, tc.a), hashHolding(t, tc.a), hashHolding(t, tc.b)
		if a != again {
			t.Errorf("%s: the same state hashed to %#x and %#x", tc.name, a, again)
		}
		if a == b {
			t.Errorf("%s: both states hash to %#x", tc.name, a)
		}
	}
}

// TestStatePlanHashSeesCreationPayload: a machine that has not run yet is
// its creation payload — what its initial entry action will start from — and
// two programs that differ only there are two states.
func TestStatePlanHashSeesCreationPayload(t *testing.T) {
	created := func(payload psharp.Event) uint64 {
		cache := &firstState{}
		dfs := sct.NewDFS()
		dfs.PrepareIteration(0)
		psharp.RunTest(func(r *psharp.Runtime) {
			r.MustRegister("Holder", func() psharp.Machine { return &holder{} })
			r.MustCreate("Holder", payload)
		}, psharp.TestConfig{Strategy: dfs, StateCache: cache})
		return cache.hash
	}
	one, again, two := created(&evBallot{From: psharp.MachineID{Seq: 1}}), created(&evBallot{From: psharp.MachineID{Seq: 1}}), created(&evBallot{From: psharp.MachineID{Seq: 2}})
	if one != again || one == two {
		t.Fatalf("creation payloads 1, 1 and 2 hash to %#x, %#x and %#x", one, again, two)
	}
}

// TestStatePlanRefusesLiveFuncChanAndUnsafePointer: state the walker cannot
// stand for ends a state-cache campaign with an error that says where it is,
// instead of hashing to one constant whatever it is; the same fields nil are
// ordinary state, and without a cache the program just runs (from setup every
// time: it cannot be checkpointed either).
func TestStatePlanRefusesLiveFuncChanAndUnsafePointer(t *testing.T) {
	type callbacks struct {
		Name   string
		OnDone func()
	}
	type wiring struct {
		Done chan struct{}
		Raw  unsafe.Pointer
		CB   *callbacks
	}
	x := 1
	for _, tc := range []struct {
		name string
		v    wiring
		path string // "" = hashable
	}{
		{"all nil", wiring{CB: &callbacks{Name: "idle"}}, ""},
		{"live chan", wiring{Done: make(chan struct{})}, "wiring.Done holds a non-nil chan"},
		{"live unsafe.Pointer", wiring{Raw: unsafe.Pointer(&x)}, "wiring.Raw holds a non-nil unsafe.Pointer"},
		{"live func behind a pointer", wiring{CB: &callbacks{OnDone: func() {}}}, "callbacks.OnDone holds a non-nil func"},
	} {
		rep := sct.Run(holding(tc.v), sct.Options{Strategy: sct.NewDFS(), Iterations: 50, StateCache: true})
		var serr *psharp.StateError
		switch {
		case tc.path == "" && rep.Err != nil:
			t.Errorf("%s: %v", tc.name, rep.Err)
		case tc.path == "":
			if rep.Iterations == 0 {
				t.Errorf("%s: nothing explored: %s", tc.name, rep.String())
			}
		case !errors.As(rep.Err, &serr):
			t.Errorf("%s: Report.Err = %v, want a *psharp.StateError", tc.name, rep.Err)
		case serr.Owner != "machine Holder" || !strings.HasSuffix(rep.Err.Error(), tc.path):
			t.Errorf("%s: %q, want the state of machine Holder … %s", tc.name, rep.Err, tc.path)
		case rep.Iterations != 0 || rep.PrunedIterations != 0:
			t.Errorf("%s: the campaign went on: %s", tc.name, rep.String())
		}
		// No cache: nothing is hashed, nothing refused.
		plain := sct.Run(holding(tc.v), sct.Options{Strategy: sct.NewDFS(), Iterations: 50})
		if plain.Err != nil || plain.Iterations == 0 || plain.RestoredPoints != 0 {
			t.Errorf("%s, no cache: %v, %s", tc.name, plain.Err, plain.String())
		}
	}
	if _, err := psharp.StateHash(wiring{}); err != nil {
		t.Errorf("nil func, chan and unsafe.Pointer fields: %v", err)
	}
}

// Generated state for the round-trip property.

type leaf struct {
	Flag  bool
	Small int8
	Pad   int64 // padding after Small must not be hashed
	Text  string
	Ratio float64
}

type tagged interface{ tag() string }

func (l leaf) tag() string  { return l.Text }
func (n *node) tag() string { return n.Name }

type node struct {
	ID     int
	Name   string
	Next   *node
	Kids   []*node
	Leaves []leaf
	Pair   [2]leaf
	Grid   [3][2]int16
	Tags   map[string]int
	Refs   map[int]*node
	ByLeaf map[leaf][]int
	Any    any
	Tagged tagged
	Blob   []byte
	Shared *[]int
	hidden *node // unexported: hashed and copied all the same
	Empty  struct{}
	Nil    func()
}

// gen builds a graph of up to budget nodes; pool holds the nodes made so far,
// for edges that share or close cycles.
type gen struct {
	r    *rand.Rand
	pool []*node
}

func (g *gen) leaf() leaf {
	return leaf{g.r.Intn(2) == 0, int8(g.r.Intn(100)), g.r.Int63(), fmt.Sprint("t", g.r.Intn(50)), g.r.Float64()}
}

func (g *gen) old() *node {
	if len(g.pool) == 0 || g.r.Intn(3) == 0 {
		return nil
	}
	return g.pool[g.r.Intn(len(g.pool))]
}

func (g *gen) node(depth int) *node {
	n := &node{ID: g.r.Intn(1000), Name: fmt.Sprint("n", g.r.Intn(100)), Pair: [2]leaf{g.leaf(), g.leaf()}}
	g.pool = append(g.pool, n)
	for i := range n.Grid {
		n.Grid[i] = [2]int16{int16(g.r.Intn(9)), int16(g.r.Intn(9))}
	}
	if g.r.Intn(3) == 0 {
		n.Blob = make([]byte, 100+g.r.Intn(200)) // past any 128-element window
		g.r.Read(n.Blob)
	}
	for i := g.r.Intn(4); i > 0; i-- {
		n.Leaves = append(n.Leaves, g.leaf())
	}
	if g.r.Intn(2) == 0 {
		n.Tags = map[string]int{}
		for i := g.r.Intn(5); i > 0; i-- {
			n.Tags[fmt.Sprint("k", g.r.Intn(20))] = g.r.Intn(9)
		}
	}
	if g.r.Intn(3) == 0 {
		n.ByLeaf = map[leaf][]int{g.leaf(): {1, 2, 3}, g.leaf(): nil}
	}
	n.hidden = g.old()
	if depth > 0 {
		switch g.r.Intn(4) {
		case 0:
			n.Next = g.old() // shared, or a cycle
		default:
			n.Next = g.node(depth - 1)
		}
		for i := g.r.Intn(3); i > 0; i-- {
			if k := g.old(); k != nil && g.r.Intn(2) == 0 {
				n.Kids = append(n.Kids, k, k) // the same node twice
			} else {
				n.Kids = append(n.Kids, g.node(depth-1))
			}
		}
		if g.r.Intn(3) == 0 {
			n.Refs = map[int]*node{1: g.node(depth - 1), 2: g.old(), 3: n}
		}
	}
	switch g.r.Intn(5) {
	case 0:
		n.Any = g.leaf() // a boxed value
	case 1:
		n.Any = g.old() // a pointer, possibly to a node reached elsewhere
	case 2:
		n.Any = []string{"x", n.Name}
	case 3:
		n.Any = map[string]*node{"self": n}
	}
	switch g.r.Intn(3) {
	case 0:
		n.Tagged = g.leaf()
	case 1:
		n.Tagged = n
	}
	if g.r.Intn(2) == 0 {
		s := []int{g.r.Intn(9), g.r.Intn(9)}
		n.Shared = &s
		if o := g.old(); o != nil {
			o.Shared = &s
		}
	}
	return n
}

// mutate changes one thing somewhere in the graph below n.
func mutate(r *rand.Rand, n *node) {
	for n.Next != nil && r.Intn(3) > 0 {
		n = n.Next
	}
	switch r.Intn(4) {
	case 0:
		n.ID++
	case 1:
		n.Pair[1].Text += "!"
	case 2:
		n.Grid[2][1]++
	case 3:
		if len(n.Blob) > 0 {
			n.Blob[len(n.Blob)-1]++
		} else {
			n.Name += "'"
		}
	}
}

// TestStatePlanRoundTrip is the property the checkpoints stand on, over
// seeded generated values — nested structs, arrays, maps with flat and with
// pointer-holding entries, slices longer than 128, boxed and pointer
// interface values, shared and cyclic pointers, unexported fields: a copy
// hashes as its original does (aliasing is part of the hash, so it is
// preserved, inside one value and across the values of one walk); it shares
// no memory with it, so changing either leaves the other's hash alone; and a
// copy of the copy is as good.
func TestStatePlanRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		g := &gen{r: rand.New(rand.NewSource(seed))}
		// Two "machines" and an "event" that share part of their state.
		a, b := g.node(4), g.node(3)
		ev := &node{Name: "event", Next: a.Next, Kids: []*node{b, a}}
		orig := []any{a, b, ev}
		want, err := psharp.StateHash(orig...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if again, _ := psharp.StateHash(orig...); again != want {
			t.Fatalf("seed %d: one value hashed to %#x and %#x", seed, want, again)
		}
		copies, ok := psharp.StateCopy(orig...)
		if !ok {
			t.Fatalf("seed %d: copy refused", seed)
		}
		if got, _ := psharp.StateHash(copies...); got != want {
			t.Fatalf("seed %d: the copy hashes to %#x, the original to %#x", seed, got, want)
		}
		ca, cb, cev := copies[0].(*node), copies[1].(*node), copies[2].(*node)
		if ca == a || cb == b || cev.Kids[0] != cb || cev.Kids[1] != ca || cev.Next != ca.Next {
			t.Fatalf("seed %d: sharing across the walk's values not preserved", seed)
		}
		twice, ok := psharp.StateCopy(copies...)
		if got, _ := psharp.StateHash(twice...); !ok || got != want {
			t.Fatalf("seed %d: the copy of the copy hashes to %#x, the original to %#x", seed, got, want)
		}
		mutate(g.r, ca)
		if got, _ := psharp.StateHash(orig...); got != want {
			t.Fatalf("seed %d: changing the copy changed the original's hash", seed)
		}
		changed, _ := psharp.StateHash(copies...)
		if changed == want {
			t.Fatalf("seed %d: a changed copy still hashes to %#x", seed, want)
		}
		mutate(g.r, a)
		if got, _ := psharp.StateHash(copies...); got != changed {
			t.Fatalf("seed %d: changing the original changed the copy's hash", seed)
		}
	}
}

// TestStatePlanCopyKeepsSliceSemantics: a copied slice has its original's
// length, capacity and nil-ness, slices of one array still share it, and a
// pointer into the middle of something also reached whole — which a copy
// would silently separate — makes the copy unfaithful instead.
func TestStatePlanCopyKeepsSliceSemantics(t *testing.T) {
	type slices struct {
		Nil, Empty, Room, Same []int
		Short                  []int
	}
	room := make([]int, 3, 10)
	v := &slices{Empty: []int{}, Room: room, Same: room, Short: room[:2]}
	copies, ok := psharp.StateCopy(v)
	if !ok {
		t.Fatal("copy refused")
	}
	c := copies[0].(*slices)
	if c.Nil != nil || c.Empty == nil || len(c.Room) != 3 || cap(c.Room) != 10 || len(c.Short) != 2 {
		t.Fatalf("copy %+v of %+v", c, v)
	}
	c.Room[0], c.Short[1] = 5, 6
	if c.Same[0] != 5 || c.Room[1] != 6 || room[0] != 0 {
		t.Fatalf("copy %+v: Room, Same and Short share one array, and not the original's %v", c, room)
	}

	type inner struct{ X, Y int }
	type outer struct {
		In  inner
		PY  *int
		All *outer
	}
	o := &outer{}
	o.PY, o.All = &o.In.Y, o
	if _, ok := psharp.StateCopy(o); ok {
		t.Fatal("a pointer into a struct also reached whole: the copy claims to be faithful")
	}
	window := struct{ Whole, Tail []int }{room, room[1:]}
	if _, ok := psharp.StateCopy(&window); ok {
		t.Fatal("two windows of one array at different offsets: the copy claims to be faithful")
	}
}

// TestStatePlanCopyStaysInsideItsAllocations: memory met first through a
// short view — a pointer to an element, a slice capped below the array — and
// then through a longer one has been copied too small for the second. The
// copy must say so and write nothing, not run off the end of the first copy
// (the race detector's pointer checks, which CI runs this under, fault on a
// write that does).
func TestStatePlanCopyStaysInsideItsAllocations(t *testing.T) {
	type item struct {
		ID   int
		Name string
	}
	type cursor struct {
		Cur   *item
		Items []item
	}
	items := []item{{1, "a"}, {2, "b"}, {3, "c"}, {4, "d"}}
	cur := &cursor{Cur: &items[0], Items: items}
	copies, ok := psharp.StateCopy(cur)
	if c := copies[0].(*cursor); ok || *c.Cur != items[0] || c.Items != nil {
		t.Fatalf("&s[0] walked before s: faithful %v, copy %+v with Cur %+v", ok, c, c.Cur)
	}

	type capped struct{ Short, Whole []int64 }
	buf := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	cp := &capped{Short: buf[:2:2], Whole: buf}
	copies, ok = psharp.StateCopy(cp)
	if c := copies[0].(*capped); ok || len(c.Short) != 2 || cap(c.Short) != 2 || c.Short[1] != 2 || c.Whole != nil {
		t.Fatalf("s[:2:2] walked before s: faithful %v, copy %+v", ok, c)
	}

	// The other way round there is room, and the views share the copy.
	type backward struct {
		Items []item
		Cur   *item
		Whole []int64
		Short []int64
		Spare []item // nothing inside the length...
		First *item  // ...until a pointer reaches into the capacity
	}
	spare := make([]item, 1, 2)[:0]
	bw := &backward{Items: items, Cur: &items[0], Whole: buf, Short: buf[:2:2], Spare: spare, First: &spare[:1][0]}
	bw.First.Name = "spare"
	copies, ok = psharp.StateCopy(bw)
	c := copies[0].(*backward)
	if !ok || c.Cur != &c.Items[0] || c.Cur == &items[0] || &c.Short[0] != &c.Whole[0] || cap(c.Short) != 2 ||
		c.First != &c.Spare[:1][0] || c.First.Name != "spare" {
		t.Fatalf("long views before short ones: faithful %v, copy %+v", ok, c)
	}
	if h, _ := psharp.StateHash(bw); h != first(psharp.StateHash(c)) {
		t.Fatal("the copy hashes unlike its original")
	}
}

func first[T any](v T, _ error) T { return v }

// TestStatePlanHashOrdersTiedMapKeys: map keys equal in content and distinct
// in identity tie on their own hash; the walk then orders their entries by
// the elements, not by the map's iteration order, which differs from one
// range to the next.
func TestStatePlanHashOrdersTiedMapKeys(t *testing.T) {
	type key struct{ N int }
	m := map[*key][]int{}
	for i := 0; i < 6; i++ {
		m[&key{7}] = []int{i}
	}
	want, err := psharp.StateHash(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got, _ := psharp.StateHash(m); got != want {
			t.Fatalf("one map hashed to %#x and, %d walks later, to %#x", want, i+1, got)
		}
	}
}

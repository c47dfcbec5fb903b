package psharp_test

// Tests for the state plans (stateplan.go): the one walker over user state
// that both hashes it for a StateCache and copies it for a checkpoint. The
// names start with TestStatePlan so CI's "DPOR + state cache suite" step runs
// them under the race detector.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
	sc.Start("Hold").OnEventDoM(&evBallot{}, func(psharp.Machine, *psharp.Context, psharp.Event) {})
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

// scramble changes every number, string, bool and map reachable from v, an
// addressable value, writing in place wherever memory can be written
// (unexported fields too); seen ends cycles. A boxed interface value, which
// cannot be written, is replaced by a scrambled copy.
func scramble(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			scramble(v.Elem(), seen)
		}
	case reflect.Slice:
		if v.Len() > 0 && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			for i := 0; i < v.Len(); i++ {
				scramble(v.Index(i), seen)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scramble(v.Index(i), seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			}
			scramble(f, seen)
		}
	case reflect.Map:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scramble(e, seen)
			v.SetMapIndex(k, e)
		}
		v.SetMapIndex(reflect.Zero(v.Type().Key()), reflect.Zero(v.Type().Elem()))
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		if e := v.Elem(); e.Kind() == reflect.Pointer {
			scramble(e, seen)
		} else {
			c := reflect.New(e.Type()).Elem()
			c.Set(e)
			scramble(c, seen)
			v.Set(c)
		}
	}
}

// scrambleAll scrambles the values of one walk.
func scrambleAll(vs []any) {
	seen := map[uintptr]bool{}
	for i := range vs {
		scramble(reflect.ValueOf(&vs[i]).Elem(), seen)
	}
}

// checkImage makes an image of vs and restores it three times: each restore
// hashes as vs do, and none shares memory with vs, the image or another
// restore — scrambling one leaves every other hash, and every byte of the
// image, as it was, and a fourth restore made after all that still hashes
// as vs. The collector runs between restores, so a restored object it was
// not told holds pointers has its targets freed under it. It returns the
// restores, unscrambled, and the image.
func checkImage(t *testing.T, name string, vs ...any) ([][]any, *psharp.StateImage) {
	t.Helper()
	want, err := psharp.StateHash(vs...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	im, ok := psharp.NewStateImage(vs...)
	if !ok {
		t.Fatalf("%s: image refused", name)
	}
	digest := im.Digest()
	restores := make([][]any, 3)
	fresh := make([][]any, 3)
	for i := range restores {
		restores[i], fresh[i] = im.Restore(), im.Restore()
		runtime.GC()
	}
	hashes := make([]uint64, len(restores))
	for i, r := range restores {
		if hashes[i], _ = psharp.StateHash(r...); hashes[i] != want {
			t.Fatalf("%s: restore %d hashes to %#x, the original to %#x", name, i, hashes[i], want)
		}
	}
	for i, r := range restores {
		scrambleAll(r)
		runtime.GC()
		if hashes[i], _ = psharp.StateHash(r...); hashes[i] == want {
			t.Fatalf("%s: scrambled, restore %d still hashes to %#x", name, i, want)
		}
		if got, _ := psharp.StateHash(vs...); got != want {
			t.Fatalf("%s: scrambling restore %d changed the original's hash", name, i)
		}
		for j, o := range restores {
			if got, _ := psharp.StateHash(o...); j != i && got != hashes[j] {
				t.Fatalf("%s: scrambling restore %d changed restore %d's hash", name, i, j)
			}
		}
		if im.Digest() != digest {
			t.Fatalf("%s: scrambling restore %d wrote into the image", name, i)
		}
	}
	if got, _ := psharp.StateHash(im.Restore()...); got != want {
		t.Fatalf("%s: a restore made after the others were scrambled hashes to %#x, the original to %#x", name, got, want)
	}
	return fresh, im
}

// TestStatePlanImageRoundTrip: the image a snapshot keeps of the program is
// the one copy walk over live memory; every restore is a relocation of it —
// objects allocated and typed-copied, pointer slots patched, maps rebuilt —
// and must be as good as a walk, over the generated graphs of
// TestStatePlanRoundTrip: it hashes as the original, keeps the sharing
// across the walk's values, and shares no memory with the original, the
// image or another restore.
func TestStatePlanImageRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		g := &gen{r: rand.New(rand.NewSource(seed))}
		a, b := g.node(4), g.node(3)
		ev := &node{Name: "event", Next: a.Next, Kids: []*node{b, a}}
		restores, _ := checkImage(t, fmt.Sprintf("seed %d", seed), a, b, ev)
		for _, r := range restores {
			ra, rb, rev := r[0].(*node), r[1].(*node), r[2].(*node)
			if ra == a || rb == b || rev.Kids[0] != rb || rev.Kids[1] != ra || rev.Next != ra.Next {
				t.Fatalf("seed %d: sharing across the walk's values not preserved", seed)
			}
		}
		if r := restores; r[0][0] == r[1][0] || r[1][0] == r[2][0] {
			t.Fatalf("seed %d: two restores share their first value", seed)
		}
	}
}

// TestStatePlanImageHandCases: the image round trip over the views, maps,
// boxes and cycles a generated graph may miss.
func TestStatePlanImageHandCases(t *testing.T) {
	// Views of one array, long ones read before short ones; a pointer
	// reaching past a slice's length into its capacity.
	type item struct {
		ID   int
		Name string
	}
	type views struct {
		Items []item
		Cur   *item
		Whole []int64
		Short []int64
		Spare []item
		First *item
		Room  []*item // capacity past the length
		Same  []*item
	}
	items := []item{{1, "a"}, {2, "b"}, {3, "c"}}
	buf := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	spare := make([]item, 1, 2)[:0]
	room := make([]*item, 2, 10)
	room[1] = &items[0]
	vw := &views{Items: items, Cur: &items[0], Whole: buf, Short: buf[:2:2], Spare: spare, First: &spare[:1][0], Room: room, Same: room}
	vw.First.Name = "spare"
	restores, im := checkImage(t, "views", vw)
	if im.Slots() == 0 {
		t.Fatal("views: an image with no pointer slots")
	}
	for i, r := range restores {
		c := r[0].(*views)
		if c.Cur != &c.Items[0] || &c.Short[0] != &c.Whole[0] || cap(c.Short) != 2 || c.First != &c.Spare[:1][0] ||
			c.First.Name != "spare" || len(c.Room) != 2 || cap(c.Room) != 10 || &c.Same[0] != &c.Room[0] || c.Room[1] != c.Cur {
			t.Fatalf("views, restore %d: %+v", i, c)
		}
		c.Room = append(c.Room, c.Cur)
		if c.Same[:3][2] != c.Cur || room[:3][2] != nil {
			t.Fatalf("views, restore %d: an append inside the capacity does not show through the other view alone", i)
		}
		if i+1 < len(restores) {
			if o := restores[i+1][0].(*views); &o.Items[0] == &c.Items[0] || o.Room[:3][2] != nil {
				t.Fatalf("views, restores %d and %d share an array", i, i+1)
			}
		}
	}

	// Maps with flat and with pointer-holding keys and elements.
	type key struct{ N int }
	k1, k2 := &key{1}, &key{2}
	shared := []int{7}
	maps := &struct {
		Flat    map[string]int
		PtrKeys map[*key][]int
		PtrVals map[leaf]*node
		Nested  map[string]map[int]string
		Boxed   map[string]any
		Empty   map[int]int
		Again   map[string]int
		Keys    []*key
	}{
		Flat:    map[string]int{"a": 1, "b": 2},
		PtrKeys: map[*key][]int{k1: shared, k2: shared},
		PtrVals: map[leaf]*node{{Text: "x"}: {Name: "n"}, {Text: "y"}: nil},
		Nested:  map[string]map[int]string{"in": {1: "one"}},
		Boxed:   map[string]any{"slice": []int{1, 2}, "ptr": k1, "pair": pairOf{&shared[0], &shared[0]}},
		Empty:   map[int]int{},
		Keys:    []*key{k1, k2},
	}
	maps.Again = maps.Flat
	restores, im = checkImage(t, "maps", maps)
	if im.Maps() != 7 {
		t.Fatalf("maps: the image holds %d maps, want 7", im.Maps())
	}
	for i, r := range restores {
		c := r[0].(*struct {
			Flat    map[string]int
			PtrKeys map[*key][]int
			PtrVals map[leaf]*node
			Nested  map[string]map[int]string
			Boxed   map[string]any
			Empty   map[int]int
			Again   map[string]int
			Keys    []*key
		})
		if c.PtrKeys[c.Keys[0]] == nil || &c.PtrKeys[c.Keys[0]][0] != &c.PtrKeys[c.Keys[1]][0] || c.PtrKeys[k1] != nil {
			t.Fatalf("maps, restore %d: pointer keys not relocated: %v", i, c.PtrKeys)
		}
		if c.Boxed["ptr"] != c.Keys[0] || c.Empty == nil || len(c.Empty) != 0 {
			t.Fatalf("maps, restore %d: %+v", i, c)
		}
		c.Again["c"] = 3
		if c.Flat["c"] != 3 || maps.Flat["c"] != 0 {
			t.Fatalf("maps, restore %d: one map reached twice is not one map", i)
		}
	}

	// Interface values: boxed and holding pointers, pointer-shaped without
	// being pointers, and flat.
	x := 5
	type onePtr struct{ P *int }
	var cell any = &x // an interface as an object of its own, behind a pointer
	boxes := []any{pairOf{&x, &x}, onePtr{&x}, [1]*int{&x}, []string{"s", "t"}, map[int]*int{1: &x}, leaf{Text: "flat"}, &x, &cell}
	restores, _ = checkImage(t, "boxes", boxes...)
	for i, r := range restores {
		p := r[0].(pairOf)
		if p.A != p.B || p.A != r[1].(onePtr).P || p.A != r[2].([1]*int)[0] || p.A != r[4].(map[int]*int)[1] || p.A != r[6] || p.A == &x {
			t.Fatalf("boxes, restore %d: one int is not one int: %v", i, r)
		}
		if c := r[7].(*any); c == &cell || *c != any(p.A) {
			t.Fatalf("boxes, restore %d: the interface behind a pointer is not its own copy of the one int", i)
		}
	}

	// Cycles: through a pointer, a slice, a map and an interface.
	self := &node{Name: "self"}
	self.Next, self.Kids, self.Any = self, []*node{self}, self
	self.Refs = map[int]*node{0: self}
	loop := map[string]any{}
	loop["loop"] = loop
	restores, _ = checkImage(t, "cycles", self, loop)
	for i, r := range restores {
		c, l := r[0].(*node), r[1].(map[string]any)
		if c.Next != c || c.Kids[0] != c || c.Any != any(c) || c.Refs[0] != c || c == self ||
			reflect.ValueOf(l["loop"]).Pointer() != reflect.ValueOf(l).Pointer() {
			t.Fatalf("cycles, restore %d: a cycle does not close on its copy", i)
		}
	}
}

package psharp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// State plans: the one walker over user state.
//
// The tester looks inside user values — machine and monitor logic, event
// payloads — for two reasons: to hash the global state for a StateCache, and
// to copy it for a checkpoint (see checkpoint.go). Both walk the same shape,
// so the shape is compiled once: on first sight of a type, planOf lowers it
// to a statePlan, a flat list of (offset, kind, sub-plan) ops with structs
// inlined, frozen like a compiledSchema and shared by the whole process. The
// two interpreters, stateWalk.hash and stateWalk.copy, run a plan over raw
// memory, one small function per kind, and share the walk's visited table:
// every pointer, slice and map is entered once per walk, so aliasing and
// cycles are part of what is hashed and survive a copy, and neither depth
// nor length is capped. A copy walk makes an image (see below), which a
// relocation turns into a working copy without walking anything.
//
// What a plan cannot represent faithfully is a non-nil func, chan or
// unsafe.Pointer: code and synchronisation state, not data. A walk that meets
// one records a stateRefusal naming the field instead of guessing; nil ones
// are ordinary values. Pointers into the middle of another object (&s.f,
// &a[i], s[1:]) are followed, but that they overlap is not represented in
// the hash; a copy detects it (stateWalk.overlaps) and is discarded.

// stateKind labels the ops of a plan.
type stateKind uint8

const (
	skWords     stateKind = iota // n bytes of pointer-free memory: bools, numbers
	skString                     // a string header; the bytes are immutable
	skPointer                    // *T; sub is T's plan
	skSlice                      // []T; sub is T's plan
	skArray                      // [n]T of a T that is not plain words; sub is T's plan
	skMap                        // map[K]V; key and sub are K's and V's plans
	skInterface                  // an interface; the dynamic type picks the plan
	skOpaque                     // func, chan, unsafe.Pointer: nil or refused
)

// stateOp is one step of a plan: what lies at off bytes into the value.
type stateOp struct {
	kind stateKind
	off  uintptr
	n    uintptr      // skWords: bytes; skArray: elements
	sub  *statePlan   // element plan (skPointer, skSlice, skArray, skMap's value)
	key  *statePlan   // skMap
	typ  reflect.Type // the field's own type (skSlice, skMap, skInterface, skOpaque)
	path string       // skOpaque: the field's path from the plan's type
}

// statePlan is the compiled walk over values of one type.
type statePlan struct {
	typ  reflect.Type
	kind reflect.Kind
	id   uint64 // typeID(typ)
	size uintptr
	ops  []stateOp
	// flat: only skWords and skString ops, so the value owns nothing a walk
	// could enter twice and a shallow copy is a deep one. dense: one skWords
	// op covering the whole value, so an array of them is one block of memory.
	// direct: pointer-shaped (a pointer, a map, a struct or array of one), so
	// an interface holding one has it as its data word instead of a box.
	flat, dense, direct bool
}

// statePlans caches the plan per type for the process; planMu serialises
// compilation, so a type has one plan and plan pointers can stand for types.
var (
	statePlans sync.Map // reflect.Type → *statePlan
	planMu     sync.Mutex
)

// planOf returns t's plan, compiling it — and the plans of every type it
// reaches — on first sight.
func planOf(t reflect.Type) *statePlan {
	if p, ok := statePlans.Load(t); ok {
		return p.(*statePlan)
	}
	planMu.Lock()
	defer planMu.Unlock()
	b := planBuilder{pending: make(map[reflect.Type]*statePlan)}
	p := b.plan(t)
	// Published only once complete: a recursive type's plan points back into
	// the batch it was compiled in.
	for t, p := range b.pending {
		statePlans.Store(t, p)
	}
	return p
}

// planBuilder compiles one batch of mutually reachable types.
type planBuilder struct {
	pending map[reflect.Type]*statePlan
}

func (b *planBuilder) plan(t reflect.Type) *statePlan {
	if p, ok := statePlans.Load(t); ok {
		return p.(*statePlan)
	}
	if p := b.pending[t]; p != nil {
		return p // under construction further up: a recursive type
	}
	p := &statePlan{typ: t, kind: t.Kind(), id: typeID(t), size: t.Size()}
	b.pending[t] = p
	b.emit(p, t, 0, "")
	p.flat = true
	for i := range p.ops {
		if k := p.ops[i].kind; k != skWords && k != skString {
			p.flat = false
		}
	}
	p.dense = len(p.ops) == 1 && p.ops[0].kind == skWords && p.ops[0].n == p.size
	if p.kind != reflect.Interface {
		// Boxed, the zero value's data word points at the box; direct, it is
		// the value: nil.
		z := reflect.Zero(t).Interface()
		p.direct = (*ifaceWords)(unsafe.Pointer(&z)).data == nil
	}
	return p
}

// emit appends the ops of a t at off to p; path names the place for refusals.
func (b *planBuilder) emit(p *statePlan, t reflect.Type, off uintptr, path string) {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		p.words(off, t.Size())
	case reflect.String:
		p.ops = append(p.ops, stateOp{kind: skString, off: off})
	case reflect.Pointer:
		p.ops = append(p.ops, stateOp{kind: skPointer, off: off, sub: b.plan(t.Elem())})
	case reflect.Slice:
		p.ops = append(p.ops, stateOp{kind: skSlice, off: off, sub: b.plan(t.Elem()), typ: t})
	case reflect.Array:
		e := b.plan(t.Elem())
		switch {
		case t.Len() == 0 || e.size == 0:
		case e.dense:
			p.words(off, t.Size())
		default:
			p.ops = append(p.ops, stateOp{kind: skArray, off: off, n: uintptr(t.Len()), sub: e})
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.Name != "_" {
				b.emit(p, f.Type, off+f.Offset, path+"."+f.Name)
			}
		}
	case reflect.Map:
		p.ops = append(p.ops, stateOp{kind: skMap, off: off, key: b.plan(t.Key()), sub: b.plan(t.Elem()), typ: t})
	case reflect.Interface:
		p.ops = append(p.ops, stateOp{kind: skInterface, off: off, typ: t})
	default: // Func, Chan, UnsafePointer
		p.ops = append(p.ops, stateOp{kind: skOpaque, off: off, typ: t, path: path})
	}
}

// words adds n bytes of plain memory at off, extending the op before it
// when the two touch: padding between fields is never part of an op.
func (p *statePlan) words(off, n uintptr) {
	if k := len(p.ops) - 1; k >= 0 && p.ops[k].kind == skWords && p.ops[k].off+p.ops[k].n == off {
		p.ops[k].n += n
		return
	}
	p.ops = append(p.ops, stateOp{kind: skWords, off: off, n: n})
}

// typeID hashes a type's identity: its package path and name under its
// pointer indirections, because String abbreviates the path to the package
// name — a/msg.Ping and b/msg.Ping would share an ID, and two states that
// differ only in which of them is queued would be one. Unnamed types have
// only String to go by.
func typeID(t reflect.Type) uint64 {
	id, base := fnvOffset64, t
	for base.Kind() == reflect.Pointer {
		id, base = fnvByte(id, '*'), base.Elem()
	}
	if base.Name() != "" {
		return fnvString(fnvByte(fnvString(id, base.PkgPath()), '.'), base.Name())
	}
	return fnvString(id, base.String())
}

// StateError reports that a machine's or monitor's state cannot be hashed:
// it holds a live func, chan or unsafe.Pointer, whose meaning no hash of
// bytes captures, or it is a closure-form machine's logic (a MachineFunc,
// with an empty Path), whose state is what its actions captured. A Run with
// TestConfig.StateCache set ends at the first such value and returns the
// error in IterationResult.Err; pruning on a hash that ignored the value
// could drop schedules that differ only in it.
type StateError struct {
	// Owner says whose state was walked ("machine <type>" or "monitor
	// <name>"), In is the Go type the value was found in, Path the field path
	// inside it and Kind the offending field's kind.
	Owner string
	In    string
	Path  string
	Kind  string
}

func (e *StateError) Error() string {
	return fmt.Sprintf("psharp: state of %s cannot be hashed for the state cache: %s%s holds a non-nil %s",
		e.Owner, e.In, e.Path, e.Kind)
}

// visitKey identifies an object of a walk: where it is and as what it was
// entered (a struct and its first field share an address).
type visitKey struct {
	at   unsafe.Pointer
	plan *statePlan
}

// visit is one entered object: obj is its copy's object in the image (copy
// walks), n how many elements of it have been walked and size its extent in
// bytes.
type visit struct {
	key  visitKey
	obj  int32
	n    int
	size uintptr
}

// visited is the per-walk table of entered objects, in entry order: an
// object's index is its identity in the hash. A component of the state hash
// enters a handful of objects, so lookups scan the list; a table that
// outgrows linearScan (a snapshot of a whole program) is indexed by a map.
type visited struct {
	list  []visit
	index map[visitKey]int32 // of list, while it is longer than linearScan
}

const linearScan = 8

func (v *visited) reset() { v.truncate(0) }

func (v *visited) lookup(k visitKey) (int, bool) {
	if len(v.list) > linearScan {
		i, ok := v.index[k]
		return int(i), ok
	}
	for i := range v.list {
		if v.list[i].key == k {
			return i, true
		}
	}
	return 0, false
}

func (v *visited) add(e visit) int {
	n := len(v.list)
	v.list = append(v.list, e)
	switch {
	case n < linearScan:
	case n == linearScan:
		if v.index == nil {
			v.index = make(map[visitKey]int32)
		}
		for i := range v.list {
			v.index[v.list[i].key] = int32(i)
		}
	default:
		v.index[e.key] = int32(n)
	}
	return n
}

// truncate drops the objects entered since the list was n long.
func (v *visited) truncate(n int) {
	if len(v.list) > linearScan {
		if n <= linearScan {
			clear(v.index)
		} else {
			for i := range v.list[n:] {
				delete(v.index, v.list[n+i].key)
			}
		}
	}
	clear(v.list[n:]) // drop the references into user state
	v.list = v.list[:n]
}

// stateWalk is one traversal of user state by either interpreter. A harness
// keeps one and resets it per walk, so steady-state walks allocate only what
// a copy must.
type stateWalk struct {
	seen visited
	h    uint64 // the hash interpreter's running value
	// refused is the first value met that no plan stands for: a StateError
	// still without its Owner, which the walk does not know.
	refused *StateError
	// unfaithful: a copy could not keep two slices in the one array they share.
	unfaithful bool

	// A copy walk writes into img: into object owner, or, while owner is -1,
	// into rootv, the root being copied, whose object it leaves in rootObj.
	img     *image
	owner   int32
	rootObj int32
	rootv   ifaceWords

	// tabs remembers the plan behind an interface's type word (see dynamic).
	tabs [16]struct {
		tab  unsafe.Pointer
		plan *statePlan
	}

	iter    reflect.MapIter
	scratch map[*stateOp]mapScratch
	entries []mapEntry
	spans   []span
}

// mapScratch holds one map op's addressable key and element, which the flat
// map paths set from the iterator instead of allocating per entry.
type mapScratch struct {
	k, v   reflect.Value
	kp, vp unsafe.Pointer
}

// reset readies the walk for a new traversal.
func (w *stateWalk) reset() {
	w.seen.reset()
	w.h, w.refused, w.unfaithful = fnvOffset64, nil, false
}

func (w *stateWalk) refuse(p *statePlan, op *stateOp) {
	if w.refused == nil {
		w.refused = &StateError{In: p.typ.String(), Path: op.path, Kind: op.typ.Kind().String()}
	}
}

// refusedIn is the walk's refusal as the error a Run reports: with the
// machine or monitor whose state was walked.
func (w *stateWalk) refusedIn(owner string) *StateError {
	w.refused.Owner = owner
	return w.refused
}

// sliceHeader is the memory layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// ifaceWords is the memory layout of an interface value, empty or not: a
// type (or method table) word, nil in a nil interface and otherwise one per
// dynamic type, and a data word, which for a pointer dynamic type is the
// pointer itself.
type ifaceWords struct {
	tab, data unsafe.Pointer
}

// dynamic returns the plan of the dynamic type of the non-nil interface
// value at f, of static type typ. Asking reflect costs a few calls and the
// plan table a hashed lookup; events and logic values come in a handful of
// types, so the type word is looked up in a small direct-mapped cache first
// (asking every time reads −3.6 % on table2_reduced, median of 30 alternating
// pairs a cell, −6 % where restoring dominates, on TwoPhaseCommit).
func (w *stateWalk) dynamic(typ reflect.Type, f unsafe.Pointer) *statePlan {
	tab := (*ifaceWords)(f).tab
	e := &w.tabs[(uintptr(tab)>>4)%uintptr(len(w.tabs))]
	if e.tab != tab {
		e.tab, e.plan = tab, planOf(reflect.NewAt(typ, f).Elem().Elem().Type())
	}
	return e.plan
}

// Tags folded where a pointer-like value is nil, entered for the first time,
// or a way back to object number i of the walk.
const (
	tagNil   uint64 = 0xc2b2ae3d27d4eb4f
	tagEnter uint64 = 0x27d4eb2f165667c5
	tagBack  uint64 = 0x165667b19e3779f9
)

// fold mixes one word into a running hash; every step is a bijection of v.
func fold(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// foldMem folds n bytes of plain memory.
func foldMem(h uint64, at unsafe.Pointer, n uintptr) uint64 {
	b := unsafe.Slice((*byte)(at), n)
	for ; len(b) >= 8; b = b[8:] {
		h = fold(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * i)
		}
		h = fold(h, tail)
	}
	return h
}

func foldString(h uint64, s string) uint64 {
	return foldMem(fold(h, uint64(len(s))), unsafe.Pointer(unsafe.StringData(s)), uintptr(len(s)))
}

// hash folds the value of plan p at at into w.h.
func (w *stateWalk) hash(p *statePlan, at unsafe.Pointer) {
	for i := range p.ops {
		op := &p.ops[i]
		f := unsafe.Add(at, op.off)
		switch op.kind {
		case skWords:
			w.h = foldMem(w.h, f, op.n)
		case skString:
			w.h = foldString(w.h, *(*string)(f))
		case skPointer:
			w.hashPointer(op.sub, *(*unsafe.Pointer)(f))
		case skSlice:
			w.hashSlice(op.sub, (*sliceHeader)(f))
		case skArray:
			for j := uintptr(0); j < op.n; j++ {
				w.hash(op.sub, unsafe.Add(f, j*op.sub.size))
			}
		case skMap:
			w.hashMap(op, f)
		case skInterface:
			w.hashInterface(op.typ, f)
		case skOpaque:
			if *(*unsafe.Pointer)(f) == nil {
				w.h = fold(w.h, tagNil)
			} else {
				w.refuse(p, op)
			}
		}
	}
}

// enter folds a pointer-like value's identity and reports whether its
// contents are still to be walked: not if it is nil or was entered before.
func (w *stateWalk) enter(k visitKey, size uintptr) bool {
	if k.at == nil {
		w.h = fold(w.h, tagNil)
		return false
	}
	if i, ok := w.seen.lookup(k); ok {
		w.h = fold(w.h, tagBack+uint64(i))
		return false
	}
	w.seen.add(visit{key: k, size: size})
	w.h = fold(w.h, tagEnter)
	return true
}

func (w *stateWalk) hashPointer(sub *statePlan, at unsafe.Pointer) {
	if sub.size == 0 {
		// Pointers to zero-size values share one address and point at nothing.
		if at == nil {
			w.h = fold(w.h, tagNil)
		} else {
			w.h = fold(w.h, tagEnter)
		}
		return
	}
	if w.enter(visitKey{at, sub}, sub.size) {
		w.hash(sub, at)
	}
}

func (w *stateWalk) hashSlice(sub *statePlan, s *sliceHeader) {
	w.h = fold(w.h, uint64(s.len))
	if s.len == 0 || sub.size == 0 {
		return
	}
	k := visitKey{s.data, sub}
	if i, ok := w.seen.lookup(k); ok {
		// The same array again; only a longer window shows anything new.
		w.h = fold(w.h, tagBack+uint64(i))
		if s.len <= w.seen.list[i].n {
			return
		}
		w.seen.list[i].n = s.len
	} else {
		w.seen.add(visit{key: k, n: s.len, size: uintptr(s.cap) * sub.size})
		w.h = fold(w.h, tagEnter)
	}
	if sub.dense {
		w.h = foldMem(w.h, s.data, uintptr(s.len)*sub.size)
		return
	}
	for j := 0; j < s.len; j++ {
		w.hash(sub, unsafe.Add(s.data, uintptr(j)*sub.size))
	}
}

// mapEntry is one entry of a map whose keys or elements are not flat, held
// in addressable copies and ordered by kh, the hash of the key alone.
type mapEntry struct {
	kh     uint64
	kp, vp unsafe.Pointer
}

func byKeyHash(a, b mapEntry) int { return cmp.Compare(a.kh, b.kh) }

// hashMap folds a map. Entries of flat keys and elements are folded one by
// one from the same start and XORed, so iteration order cannot show. Others
// can alias what the rest of the walk enters, and then order would decide
// which of two aliases counts as the first: those are walked in the order of
// their keys' own hashes, and keys that hash alike (equal content behind
// different pointers) in the order of their elements' own. Entries alike in
// both are walked in iteration order, which shows in the hash only if
// something else in the walk aliases one of them.
func (w *stateWalk) hashMap(op *stateOp, f unsafe.Pointer) {
	if !w.enter(visitKey{*(*unsafe.Pointer)(f), op.sub}, 0) {
		return
	}
	mv := reflect.NewAt(op.typ, f).Elem()
	w.h = fold(w.h, uint64(mv.Len()))
	if mv.Len() == 0 {
		return
	}
	outer := w.h
	if op.key.flat && op.sub.flat {
		sc := w.mapScratch(op)
		var x uint64
		for w.iter.Reset(mv); w.iter.Next(); {
			sc.k.SetIterKey(&w.iter)
			sc.v.SetIterValue(&w.iter)
			w.h = fnvOffset64
			w.hash(op.key, sc.kp)
			w.hash(op.sub, sc.vp)
			x ^= mix64(w.h)
		}
		w.iter.Reset(reflect.Value{})
		w.h = fold(outer, x)
		return
	}
	base := len(w.entries)
	for it := mv.MapRange(); it.Next(); {
		k, v := reflect.New(op.typ.Key()), reflect.New(op.typ.Elem())
		k.Elem().SetIterKey(it)
		v.Elem().SetIterValue(it)
		e := mapEntry{kp: k.UnsafePointer(), vp: v.UnsafePointer()}
		e.kh = w.alone(op.key, e.kp)
		w.entries = append(w.entries, e)
	}
	mine := w.entries[base:]
	slices.SortFunc(mine, byKeyHash)
	for i, j := 0, 1; i < len(mine); i, j = j, j+1 {
		for j < len(mine) && mine[j].kh == mine[i].kh {
			j++
		}
		if tied := mine[i:j]; len(tied) > 1 {
			for t := range tied {
				tied[t].kh = w.alone(op.sub, tied[t].vp)
			}
			slices.SortFunc(tied, byKeyHash)
		}
	}
	w.h = outer
	for i := range mine {
		w.hash(op.key, mine[i].kp)
		w.hash(op.sub, mine[i].vp)
	}
	clear(w.entries[base:])
	w.entries = w.entries[:base]
}

// alone hashes the value of plan p at at by itself: what it enters is left
// for the walk proper to enter.
func (w *stateWalk) alone(p *statePlan, at unsafe.Pointer) uint64 {
	mark := len(w.seen.list)
	w.h = fnvOffset64
	w.hash(p, at)
	w.seen.truncate(mark)
	return w.h
}

func (w *stateWalk) mapScratch(op *stateOp) mapScratch {
	sc, ok := w.scratch[op]
	if !ok {
		k, v := reflect.New(op.typ.Key()), reflect.New(op.typ.Elem())
		sc = mapScratch{k: k.Elem(), v: v.Elem(), kp: k.UnsafePointer(), vp: v.UnsafePointer()}
		if w.scratch == nil {
			w.scratch = make(map[*stateOp]mapScratch)
		}
		w.scratch[op] = sc
	}
	return sc
}

// hashInterface folds the interface value of static type typ at f: its
// dynamic type, then the value — the data word itself if the type is
// pointer-shaped, else the box it points at.
func (w *stateWalk) hashInterface(typ reflect.Type, f unsafe.Pointer) {
	x := (*ifaceWords)(f)
	if x.tab == nil {
		w.h = fold(w.h, tagNil)
		return
	}
	p := w.dynamic(typ, f)
	w.h = fold(w.h, p.id)
	if p.direct {
		w.hash(p, unsafe.Pointer(&x.data))
		return
	}
	w.hash(p, x.data)
}

// hashEvent folds the event at ev, by type and payload.
func (w *stateWalk) hashEvent(ev *Event) { w.hashInterface(eventIface, unsafe.Pointer(ev)) }

// hashLogic folds the machine's or monitor's logic value at logic. A logic
// that is itself a func (MachineFunc) keeps its state in what its closures
// captured, which no hash can see, and is refused like a live func field.
func (w *stateWalk) hashLogic(logic *Machine) { w.hashInterface(machineIface, unsafe.Pointer(logic)) }

// Images: what a copy walk makes.
//
// The copy interpreter is the only reader of live user memory a checkpoint
// has, and it does not make a value a program can use: it makes an image of
// one, which a relocation turns into a working copy — as many independent
// ones as are asked for — walking nothing. An image is
//   - its objects: every pointer target, slice array and box of a non-flat
//     interface value the walk entered, each in memory of its own type (T,
//     or [cap]T for a slice's array) holding the copied value;
//   - its slots: the pointer-like words inside those objects — pointers,
//     slice data, maps, the data words of interfaces — as (object, offset,
//     target object);
//   - its maps, objects of their own with no memory: each holds its entries
//     as two objects, an array of keys and one of elements;
//   - and its roots, the interface values it was made from (logic, events),
//     each a type word and a target object.
// A relocation allocates every object with its own type, fills it with a
// typed copy (write barriers kept), patches the slots, then inserts each
// map's entries into a fresh map, and stores the roots where it is told.
// Every pointer-like word points at the start of an object: a walk that
// meets one into the middle of another refuses the copy (overlaps,
// unfaithful). Strings and flat boxes are immutable and stay shared, with
// the image and between relocations; so do entry arrays without slots,
// which are read and never written.

// image is user state copied for relocation; its arrays are reused from one
// copy walk to the next.
type image struct {
	objs  []imageObj
	slots []imageSlot
	maps  []int32 // the map objects, for a relocation to fill last
}

// objKind says how a relocation makes an object.
type objKind uint8

const (
	objValue   objKind = iota // a typed copy of val
	objMap                    // a fresh map of the entries in objects keys and elems
	objEntries                // a map's keys or elements: a typed copy, or val itself if no slot lies in it
)

// imageObj is one object of an image.
type imageObj struct {
	val reflect.Value  // the image's copy, addressable; unset for a map
	at  unsafe.Pointer // val's address
	typ reflect.Type   // val's type, or the map's
	// A map has n entries, whose keys and elements are objects keys and
	// elems when n > 0.
	n           int
	keys, elems int32
	slots       int32 // how many slots lie in the object
	kind        objKind
	// boxed: typ is neither pointer-shaped (see statePlan.direct) nor an
	// interface, so made an interface a copy of val is boxed in memory of
	// its own.
	boxed bool
}

// imageSlot is a pointer-like word off bytes into object obj that stands
// for object to.
type imageSlot struct {
	obj, to int32
	off     uintptr
}

// imageRoot is an interface value an image was made from: its type word and
// data word as copied, the data word standing for object obj-1 of the image
// when obj > 0. When obj is 0 — nil, a flat box, a static func logic, a
// pointer to a zero-size value — the data word is shared as it is.
type imageRoot struct {
	tab, data unsafe.Pointer
	obj       int32
}

func (im *image) reset() {
	clear(im.objs) // drop the copies of the image before
	im.objs, im.slots, im.maps = im.objs[:0], im.slots[:0], im.maps[:0]
}

// alloc adds a zeroed object of n elements of plan p: a p, or an array of
// n of them if array.
func (im *image) alloc(p *statePlan, n int, array bool, kind objKind) int32 {
	t, boxed := p.typ, !p.direct && p.kind != reflect.Interface
	if array {
		t, boxed = reflect.ArrayOf(n, t), n > 1 || !p.direct
	}
	v := reflect.New(t)
	im.objs = append(im.objs, imageObj{val: v.Elem(), at: v.UnsafePointer(), typ: t, kind: kind, boxed: boxed})
	return int32(len(im.objs) - 1)
}

// begin readies the walk to copy into im, emptied.
func (w *stateWalk) begin(im *image) {
	w.reset()
	im.reset()
	w.img, w.owner = im, -1
}

// link records that the pointer-like word just written at d stands for
// object obj: a slot of the object being written, or the root's target.
func (w *stateWalk) link(d unsafe.Pointer, obj int32) {
	if w.owner < 0 {
		w.rootObj = obj
		return
	}
	im := w.img
	o := &im.objs[w.owner]
	im.slots = append(im.slots, imageSlot{obj: w.owner, to: obj, off: uintptr(d) - uintptr(o.at)})
	o.slots++
}

// root copies the interface value v, of static type typ, into the image.
func (w *stateWalk) root(typ reflect.Type, v ifaceWords) imageRoot {
	w.rootv, w.rootObj = v, -1
	w.copyInterface(typ, unsafe.Pointer(&w.rootv), unsafe.Pointer(&w.rootv))
	r := imageRoot{tab: w.rootv.tab, data: w.rootv.data, obj: w.rootObj + 1}
	w.rootv = ifaceWords{}
	return r
}

// logicRoot copies a machine's or monitor's logic value into the image; a
// func logic is refused, as hashLogic refuses it.
func (w *stateWalk) logicRoot(logic *Machine) imageRoot {
	return w.root(machineIface, *(*ifaceWords)(unsafe.Pointer(logic)))
}

// eventRoot copies an event into the image.
func (w *stateWalk) eventRoot(ev *Event) imageRoot {
	return w.root(eventIface, *(*ifaceWords)(unsafe.Pointer(ev)))
}

// copy writes the value of plan p at src into the image, at dst: zeroed
// memory of p's type inside the object being written (or the root) — or src
// itself, to deepen a shallow copy in place: every op reads before it
// writes.
func (w *stateWalk) copy(p *statePlan, dst, src unsafe.Pointer) {
	for i := range p.ops {
		op := &p.ops[i]
		d, s := unsafe.Add(dst, op.off), unsafe.Add(src, op.off)
		switch op.kind {
		case skWords:
			copy(unsafe.Slice((*byte)(d), op.n), unsafe.Slice((*byte)(s), op.n))
		case skString:
			*(*string)(d) = *(*string)(s)
		case skPointer:
			w.copyPointer(op.sub, d, *(*unsafe.Pointer)(s))
		case skSlice:
			w.copySlice(op, (*sliceHeader)(d), (*sliceHeader)(s))
		case skArray:
			for j := uintptr(0); j < op.n; j++ {
				w.copy(op.sub, unsafe.Add(d, j*op.sub.size), unsafe.Add(s, j*op.sub.size))
			}
		case skMap:
			w.copyMap(op, d, s)
		case skInterface:
			w.copyInterface(op.typ, d, s)
		case skOpaque:
			if *(*unsafe.Pointer)(s) != nil {
				w.refuse(p, op)
			}
		}
	}
}

// into copies the value of plan p at src to dst, which lies in object obj.
func (w *stateWalk) into(obj int32, p *statePlan, dst, src unsafe.Pointer) {
	owner := w.owner
	w.owner = obj
	w.copy(p, dst, src)
	w.owner = owner
}

// copyPointer writes at d the copy of the pointer at, to a value of plan sub.
func (w *stateWalk) copyPointer(sub *statePlan, d, at unsafe.Pointer) {
	if at == nil || sub.size == 0 {
		*(*unsafe.Pointer)(d) = at
		return
	}
	k := visitKey{at, sub}
	i, ok := w.seen.lookup(k)
	if !ok {
		// A pointer is a one-element window of what it points to: a slice that
		// starts there and is no longer shares the copy.
		i = w.seen.add(visit{key: k, obj: w.img.alloc(sub, 1, false, objValue), size: sub.size})
	}
	e := w.seen.list[i]
	to := w.img.objs[e.obj].at
	*(*unsafe.Pointer)(d) = to
	w.link(d, e.obj)
	if e.n == 0 {
		// Entered just now, or as the array of a slice copied with length 0,
		// whose first element is reached only now.
		w.seen.list[i].n = 1 // before its contents: cycles end here
		w.into(e.obj, sub, to, at)
	}
}

// copySlice copies a slice into an array of the same capacity — appends
// behave in the copy as they would have in the original — which slices of
// the same array share. Elements past the length stay zero.
func (w *stateWalk) copySlice(op *stateOp, d, s *sliceHeader) {
	sub, src := op.sub, *s // d may be s
	if src.cap == 0 || sub.size == 0 {
		*d = src // nil, or empty over nothing
		return
	}
	k := visitKey{src.data, sub}
	i, ok := w.seen.lookup(k)
	if !ok {
		obj := w.img.alloc(sub, src.cap, true, objValue)
		i = w.seen.add(visit{key: k, obj: obj, size: uintptr(src.cap) * sub.size})
	}
	e := w.seen.list[i]
	if uintptr(src.cap)*sub.size > e.size {
		// A longer view of memory already copied shorter (&s[0] before s,
		// s[:2:2] before s): the copy made then has no room for this one.
		w.unfaithful = true
		*d = sliceHeader{}
		return
	}
	to := w.img.objs[e.obj].at
	*d = sliceHeader{data: to, len: src.len, cap: src.cap}
	w.link(unsafe.Pointer(d), e.obj)
	if src.len <= e.n {
		return
	}
	w.seen.list[i].n = src.len // before the elements: they may lead back here
	if sub.dense {
		from, n := uintptr(e.n)*sub.size, uintptr(src.len)*sub.size
		copy(unsafe.Slice((*byte)(to), n)[from:], unsafe.Slice((*byte)(src.data), n)[from:])
		return
	}
	owner := w.owner
	w.owner = e.obj
	for j := e.n; j < src.len; j++ {
		w.copy(sub, unsafe.Add(to, uintptr(j)*sub.size), unsafe.Add(src.data, uintptr(j)*sub.size))
	}
	w.owner = owner
}

// copyMap copies a map as a map object of the image and its entries, and
// leaves nil at d, where a relocation puts the fresh map.
func (w *stateWalk) copyMap(op *stateOp, d, s unsafe.Pointer) {
	at := *(*unsafe.Pointer)(s)
	if at == nil {
		*(*unsafe.Pointer)(d) = nil
		return
	}
	k := visitKey{at, op.sub}
	i, ok := w.seen.lookup(k)
	if !ok {
		im := w.img
		obj := int32(len(im.objs))
		im.objs = append(im.objs, imageObj{typ: op.typ, kind: objMap})
		im.maps = append(im.maps, obj)
		// A map is one byte of span: enough for two walks that copied it apart
		// to overlap (see checkpoints.handlerStart).
		i = w.seen.add(visit{key: k, obj: obj, size: 1})
		w.copyEntries(op, obj, reflect.NewAt(op.typ, s).Elem())
	}
	*(*unsafe.Pointer)(d) = nil // last: d may be s, which the entries were read from
	w.link(d, w.seen.list[i].obj)
}

// copyEntries copies the entries of the map mv into the arrays of map object
// obj: shallow copies, deepened where they lie.
func (w *stateWalk) copyEntries(op *stateOp, obj int32, mv reflect.Value) {
	n := mv.Len()
	if n == 0 {
		return
	}
	im := w.img
	keys := im.alloc(op.key, n, true, objEntries)
	elems := im.alloc(op.sub, n, true, objEntries)
	m := &im.objs[obj]
	m.n, m.keys, m.elems = n, keys, elems
	kv, ev := im.objs[keys].val, im.objs[elems].val
	j := 0
	for w.iter.Reset(mv); w.iter.Next(); j++ {
		kv.Index(j).SetIterKey(&w.iter)
		ev.Index(j).SetIterValue(&w.iter)
	}
	w.iter.Reset(reflect.Value{})
	w.deepen(keys, op.key, n)
	w.deepen(elems, op.sub, n)
}

// deepen turns the n shallow copies of plan p in object obj into deep ones.
func (w *stateWalk) deepen(obj int32, p *statePlan, n int) {
	if p.flat {
		return
	}
	at := w.img.objs[obj].at
	for j := 0; j < n; j++ {
		e := unsafe.Add(at, uintptr(j)*p.size)
		w.into(obj, p, e, e)
	}
}

// copyInterface copies the interface value of static type typ at s to d.
func (w *stateWalk) copyInterface(typ reflect.Type, d, s unsafe.Pointer) {
	src := *(*ifaceWords)(s) // d may be s
	if src.tab == nil {
		*(*ifaceWords)(d) = ifaceWords{}
		return
	}
	p := w.dynamic(typ, s)
	switch {
	case p.flat:
		*(*ifaceWords)(d) = src // the box is immutable and owns nothing
	case p.direct:
		// Same dynamic type, so the same type word; the data word is the
		// value, copied where it lies.
		(*ifaceWords)(d).tab = src.tab
		w.copy(p, unsafe.Pointer(&(*ifaceWords)(d).data), unsafe.Pointer(&(*ifaceWords)(s).data))
	default:
		// A box of the image's own, copied from the original's.
		box := w.img.alloc(p, 1, false, objValue)
		to := w.img.objs[box].at
		w.into(box, p, to, src.data)
		*(*ifaceWords)(d) = ifaceWords{tab: src.tab, data: to}
		w.link(unsafe.Pointer(&(*ifaceWords)(d).data), box)
	}
}

var (
	machineIface = reflect.TypeOf((*Machine)(nil)).Elem()
	eventIface   = reflect.TypeOf((*Event)(nil)).Elem()
)

// relocation is where one restore of an image put its objects; whoever
// restores keeps one, to reuse its arrays.
type relocation struct {
	to   []unsafe.Pointer // by object
	maps []reflect.Value  // by image.maps
}

// restore makes a working copy of im: every object allocated with its type
// and filled with a typed copy, every slot patched, every map rebuilt from
// its entries. im is not written. The roots go where put puts them; release
// ends the restore.
func (r *relocation) restore(im *image) {
	to, maps := r.to[:0], r.maps[:0]
	for i := range im.objs {
		o := &im.objs[i]
		switch {
		case o.kind == objMap:
			m := reflect.MakeMapWithSize(o.typ, o.n)
			maps = append(maps, m)
			to = append(to, m.UnsafePointer())
		case o.kind == objEntries && o.slots == 0:
			to = append(to, o.at) // read where it lies
		case o.boxed:
			// Made an interface, an addressable value is copied into a box of
			// its own type: one allocation and a typed copy, and the box is
			// the object.
			v := o.val.Interface()
			to = append(to, (*ifaceWords)(unsafe.Pointer(&v)).data)
		default:
			p := reflect.New(o.typ)
			p.Elem().Set(o.val)
			to = append(to, p.UnsafePointer())
		}
	}
	for _, s := range im.slots {
		*(*unsafe.Pointer)(unsafe.Add(to[s.obj], s.off)) = to[s.to]
	}
	r.to, r.maps = to, maps
	for j, i := range im.maps {
		if o := &im.objs[i]; o.n > 0 {
			keys, elems := r.entries(im, o.keys), r.entries(im, o.elems)
			for e := 0; e < o.n; e++ {
				maps[j].SetMapIndex(keys.Index(e), elems.Index(e))
			}
		}
	}
}

// entries is the relocated entry array obj of im.
func (r *relocation) entries(im *image, obj int32) reflect.Value {
	if o := &im.objs[obj]; r.to[obj] != o.at {
		return reflect.NewAt(o.typ, r.to[obj]).Elem()
	}
	return im.objs[obj].val
}

// put stores the relocated root at d, an interface of the root's static
// type.
func (r *relocation) put(d unsafe.Pointer, root imageRoot) {
	v := ifaceWords{tab: root.tab, data: root.data}
	if root.obj > 0 {
		v.data = r.to[root.obj-1]
	}
	*(*ifaceWords)(d) = v
}

// release forgets the objects of the restore.
func (r *relocation) release() {
	clear(r.to)
	clear(r.maps)
	r.to, r.maps = r.to[:0], r.maps[:0]
}

// span is the memory one entered object occupies.
type span struct {
	at, end uintptr
}

// overlaps reports whether two objects the walk entered share memory without
// being the same object — a pointer into a struct that is also reached whole,
// two windows of one array. Copied apart, writes through one would no longer
// show through the other. It leaves the objects' spans in w.spans, sorted.
func (w *stateWalk) overlaps() bool {
	w.spans = w.spans[:0]
	for i := range w.seen.list {
		if e := &w.seen.list[i]; e.size > 0 {
			w.spans = append(w.spans, span{uintptr(e.key.at), uintptr(e.key.at) + e.size})
		}
	}
	slices.SortFunc(w.spans, func(a, b span) int { return cmp.Compare(a.at, b.at) })
	for i := 1; i < len(w.spans); i++ {
		if w.spans[i].at < w.spans[i-1].end {
			return true
		}
	}
	return false
}

// sharing reports whether a span of a shares memory with a span of b; both
// are sorted and overlap nowhere among themselves.
func sharing(a, b []span) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].end <= b[j].at:
			i++
		case b[j].end <= a[i].at:
			j++
		default:
			return true
		}
	}
	return false
}

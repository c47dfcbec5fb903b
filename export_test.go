package psharp

import (
	"math/bits"
	"reflect"
	"unsafe"
)

// Test-only accessors for the compiled-schema cache, used by the
// compile-once assertions in the external test package.

// SchemaCompiles reports how many machine schemas this runtime has compiled
// (both declaration forms) since construction.
func (r *Runtime) SchemaCompiles() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.schemaCompiles
}

// SchemaCompiles reports how many machine schemas the harness's recycled
// runtime has compiled across all Run calls so far.
func (h *TestHarness) SchemaCompiles() int { return h.rt.SchemaCompiles() }

// CoverageSlots reports how many transitions the harness's runtime counts
// coverage for, over every schema its machines ran under the current set.
func (h *TestHarness) CoverageSlots() int { return len(h.rt.cover.counts) }

// TypeSchemaCompiles reports how many static schemas the process has
// compiled, on every Runtime, since it started.
func TypeSchemaCompiles() int64 { return typeSchemas.compiles.Load() }

// CachedTypeSchemas reports how many probe values of machine or monitor
// types registered under name the process-wide table keeps a schema for.
func CachedTypeSchemas(name string) int {
	typeSchemas.mu.Lock()
	defer typeSchemas.mu.Unlock()
	n := 0
	for k, entries := range typeSchemas.byKey {
		if k.name == name {
			n += len(entries)
		}
	}
	return n
}

// MaxProbeValues is how many probe values of one type the table keeps.
const MaxProbeValues = maxProbeValues

// ReserveCap is the cap of the process-wide reserve of idle machine
// instances; ReserveLen reports how many it currently holds.
const ReserveCap = reserveCap

func ReserveLen() int {
	instanceReserve.mu.Lock()
	defer instanceReserve.mu.Unlock()
	return len(instanceReserve.idle)
}

// ForgetReplay makes the next Run start as the first after a change of
// configuration: it inherits nothing of the previous one, so it runs from
// setup and hashes the global state and consults its StateCache at every
// scheduling point, the prefix the strategy promises to repeat included —
// what every Run did before checkpoints and the skip existed. The equivalence tests run a
// search both ways. (A Run with a StateCache never has the zero key; without
// one, only the checkpoints are left to drop.)
func (h *TestHarness) ForgetReplay() {
	h.c.key = inheritKey{}
	h.ForgetCheckpoints()
}

// ForgetCheckpoints drops the harness's checkpoints and leaves the skip of
// the repeated prefix alone: the next Run executes every scheduling point
// from setup, as every Run did before checkpoints existed.
func (h *TestHarness) ForgetCheckpoints() {
	if ck := h.c.ck; ck != nil {
		ck.forget()
	}
}

// ChainLogCap reports the largest capacity of a handler-chain log among the
// harness's idle instances, and drops those logs' arrays, so that the next
// call measures only the Runs in between (an instance taken from the
// process-wide reserve brings the capacity another harness grew).
func (h *TestHarness) ChainLogCap() int {
	n := 0
	for _, m := range h.c.free {
		n = max(n, cap(m.ops))
		m.ops = nil
	}
	return n
}

// Checkpoints reports how many snapshots the harness holds.
func (h *TestHarness) Checkpoints() int {
	if ck := h.c.ck; ck != nil {
		return len(ck.stack)
	}
	return 0
}

// CheckpointShape is one snapshot a harness holds as the checkpoint tests
// look at it: where it sits, how many of its machines are parked at a yield
// point — of those, how many in the entry action of their birth (Booting) and
// how many at a CHESS dequeue (Dequeueing) — and how many are halted.
type CheckpointShape struct {
	Pos, Parked, Booting, Dequeueing, Halted int
}

// CheckpointShapes describes the snapshots the harness holds, shallowest
// first.
func (h *TestHarness) CheckpointShapes() []CheckpointShape {
	if h.c.ck == nil {
		return nil
	}
	var shapes []CheckpointShape
	for _, s := range h.c.ck.stack {
		sh := CheckpointShape{Pos: s.pos}
		for _, is := range s.machines {
			switch {
			case is.halted:
				sh.Halted++
			case len(is.log) == 0:
			case is.chain == nil:
				sh.Parked++
				sh.Dequeueing++
			case is.chain.st == nil:
				sh.Parked++
				sh.Booting++
			default:
				sh.Parked++
			}
		}
		shapes = append(shapes, sh)
	}
	return shapes
}

// CheckpointsStuck reports how many machines the harness has found it cannot
// rebuild mid-handler (machines past the 62nd count as one).
func (h *TestHarness) CheckpointsStuck() int {
	if h.c.ck == nil {
		return 0
	}
	return bits.OnesCount64(h.c.ck.stuck)
}

// MaxCheckpoints is the bound of a harness's snapshot stack.
const MaxCheckpoints = maxCheckpoints

// TraceLen reports how many decisions the harness's trace holds: those of
// the last iteration, also when its Run panicked and returned no result.
func (h *TestHarness) TraceLen() int { return len(h.c.trace.Decisions) }

// StateHash hashes the values in one walk of their state plans, the way one
// component of the global-state hash is computed; err names the first value
// no plan stands for.
func StateHash(vs ...any) (hash uint64, err error) {
	var w stateWalk
	w.reset()
	for i := range vs {
		w.hashInterface(anyType, unsafe.Pointer(&vs[i]))
	}
	if w.refused != nil {
		err = w.refusedIn("value")
	}
	return mix64(w.h), err
}

// StateCopy deep-copies the values in one walk of their state plans and one
// relocation of the image it makes, the way a checkpoint copies a program;
// ok is false if the copy would not be faithful (a checkpoint would be
// discarded).
func StateCopy(vs ...any) (copies []any, ok bool) {
	im, ok := NewStateImage(vs...)
	return im.Restore(), ok
}

// StateImage is values as a snapshot holds a program: the image one walk of
// their state plans makes, one root per value.
type StateImage struct {
	img   image
	roots []imageRoot
}

// NewStateImage copies the values into an image in one walk; ok is false if
// a copy would not be faithful.
func NewStateImage(vs ...any) (im *StateImage, ok bool) {
	var w stateWalk
	im = &StateImage{roots: make([]imageRoot, len(vs))}
	w.begin(&im.img)
	for i := range vs {
		im.roots[i] = w.root(anyType, *(*ifaceWords)(unsafe.Pointer(&vs[i])))
	}
	return im, w.refused == nil && !w.unfaithful && !w.overlaps()
}

// Restore relocates the image into new copies of its values, the way a
// checkpoint restores a program.
func (im *StateImage) Restore() []any {
	var rel relocation
	rel.restore(&im.img)
	vs := make([]any, len(im.roots))
	for i, root := range im.roots {
		rel.put(unsafe.Pointer(&vs[i]), root)
	}
	rel.release()
	return vs
}

// Slots and Maps count the pointer slots and the maps the image holds.
func (im *StateImage) Slots() int { return len(im.img.slots) }
func (im *StateImage) Maps() int  { return len(im.img.maps) }

// Digest folds every byte of the image's objects and every slot and root: a
// restore that writes into the image changes it.
func (im *StateImage) Digest() uint64 {
	h := fnvOffset64
	for _, o := range im.img.objs {
		h = fold(fold(fold(h, uint64(o.kind)), uint64(o.n)), uint64(o.slots))
		if o.kind != objMap {
			h = foldMem(h, o.at, o.typ.Size())
		}
	}
	for _, s := range im.img.slots {
		h = fold(fold(fold(h, uint64(s.obj)), uint64(s.to)), uint64(s.off))
	}
	for _, r := range im.roots {
		h = fold(fold(fold(h, uint64(uintptr(r.tab))), uint64(uintptr(r.data))), uint64(r.obj))
	}
	return h
}

var anyType = reflect.TypeOf((*any)(nil)).Elem()

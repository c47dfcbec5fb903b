package psharp

import (
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

// CachedSchemas reports how many machine types currently have a compiled
// schema cached (static types only; closure-form registrations record a
// negative entry that this does not count).
func (h *TestHarness) CachedSchemas() int {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	n := 0
	for _, cs := range h.rt.schemas {
		if cs != nil {
			n++
		}
	}
	return n
}

// ReserveCap is the cap of the process-wide reserve of idle machine
// instances; ReserveLen reports how many it currently holds.
const ReserveCap = reserveCap

func ReserveLen() int {
	instanceReserve.mu.Lock()
	defer instanceReserve.mu.Unlock()
	return len(instanceReserve.idle)
}

// ForgetReplay drops the harness's replay memo and its checkpoints, so that
// the next Run starts from setup, hashes the global state and consults its
// StateCache at every scheduling point, its replayed prefix included — what
// every Run did before either existed. The equivalence tests run a search
// both ways.
func (h *TestHarness) ForgetReplay() {
	if hs := h.c.hasher; hs != nil {
		hs.seen = hs.seen[:0]
	}
	h.ForgetCheckpoints()
}

// ForgetCheckpoints drops the harness's checkpoints and leaves the replay
// memo alone: the next Run executes every scheduling point from setup, as
// every Run did before checkpoints existed.
func (h *TestHarness) ForgetCheckpoints() {
	if ck := h.c.ck; ck != nil {
		ck.forget()
	}
}

// Checkpoints reports how many snapshots the harness holds.
func (h *TestHarness) Checkpoints() int {
	if ck := h.c.ck; ck != nil {
		return len(ck.stack)
	}
	return 0
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

// StateCopy deep-copies the values in one walk of their state plans, the way
// a checkpoint copies a program; ok is false if the copy would not be
// faithful (a checkpoint would be discarded).
func StateCopy(vs ...any) (copies []any, ok bool) {
	var w stateWalk
	w.reset()
	copies = make([]any, len(vs))
	for i := range vs {
		w.copyInterface(anyType, unsafe.Pointer(&copies[i]), unsafe.Pointer(&vs[i]))
	}
	return copies, w.refused == nil && !w.unfaithful && !w.overlaps()
}

var anyType = reflect.TypeOf((*any)(nil)).Elem()

package psharp

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

// ForgetReplay drops the harness's replay memo, so that the next Run hashes
// the global state and consults its StateCache at every scheduling point,
// its replayed prefix included — what every Run did before the memo
// existed. The equivalence tests run a search both ways.
func (h *TestHarness) ForgetReplay() {
	if hs := h.c.hasher; hs != nil {
		hs.seen = hs.seen[:0]
	}
}

// TraceLen reports how many decisions the harness's trace holds: those of
// the last iteration, also when its Run panicked and returned no result.
func (h *TestHarness) TraceLen() int { return len(h.c.trace.Decisions) }

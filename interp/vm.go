package interp

// The bytecode VM: an operand-stack machine over the compiled program.
// Every rule here mirrors the tree-walker (interp.go / eval.go) observable
// for observable — dispatch precedence, raised-event handling, monitor
// observation points, race-detector access order, coverage hits, step
// accounting, and fault messages — and the differential corpus harness
// holds the two engines together. What differs is the machinery: dense
// slots instead of name maps, a recycled vmState (machines, heap objects,
// operand stack, locals slab) instead of per-run and per-dispatch
// allocation.

import (
	"fmt"

	"github.com/psharp-go/psharp/internal/vclock"
	"github.com/psharp-go/psharp/lang"
	"github.com/psharp-go/psharp/obs"
)

// vval is an unboxed runtime value: a 64-bit payload plus a kind tag.
// Keeping the VM's operand stack, frames, fields, and queues free of
// interface values avoids boxing allocations and interface copies on every
// instruction, and means recycled state holds no value pointers to scrub.
type vval struct {
	n    int64
	kind uint8
}

// vval kinds. vUndef is the zero value: a declared-but-unexecuted local
// slot (the walker's missing map entry) or an absent event payload (the
// walker's nil Value).
const (
	vUndef uint8 = iota
	vInt
	vBool
	vMachine
	vRef
	vNull
)

func vint(n Int) vval         { return vval{n: int64(n), kind: vInt} }
func vmach(id MachineID) vval { return vval{n: int64(id), kind: vMachine} }
func vref(r Ref) vval         { return vval{n: int64(r), kind: vRef} }

func vbool(b bool) vval {
	if b {
		return vval{n: 1, kind: vBool}
	}
	return vval{kind: vBool}
}

// value boxes v as the walker's interface Value — fault messages only.
func (v vval) value() Value {
	switch v.kind {
	case vInt:
		return Int(v.n)
	case vBool:
		return Bool(v.n != 0)
	case vMachine:
		return MachineID(v.n)
	case vRef:
		return Ref(v.n)
	case vNull:
		return Null{}
	}
	return nil
}

// asBool mirrors the walker's hard .(Bool) assertion: the checker rules a
// mismatch out, so like the walker this panics rather than faulting.
func (v vval) asBool() bool {
	if v.kind != vBool {
		panic(fmt.Sprintf("interp: Bool expected, got %#v", v.value()))
	}
	return v.n != 0
}

func (v vval) asInt() Int {
	if v.kind != vInt {
		panic(fmt.Sprintf("interp: Int expected, got %#v", v.value()))
	}
	return Int(v.n)
}

// vmsg is one queued event, named by its EventDecl.Index. It is deliberately
// pointer-free (no write barriers on enqueue, nothing to scrub on recycle);
// vector clocks live in the instance's parallel clocks slice, populated only
// when the race detector is armed.
type vmsg struct {
	event   int32
	payload vval
}

// vmInst is one machine (or monitor, id -1) instance: dense field slots,
// event queue, current compiled state.
type vmInst struct {
	id     MachineID
	cm     *compiledMachine
	state  *compiledState
	fields []vval
	// queue[head:] is the live mailbox; consumed cells before head are
	// zeroed, and the slice resets to [:0] whenever it drains so capacity
	// is reused.
	queue []vmsg
	// clocks mirrors queue index for index while the race detector is
	// armed (send stamps, removeQueued compacts); empty otherwise.
	clocks []vclock.VC
	head   int
	// Scan cache: dirty marks the mailbox or state changed since the last
	// scanEnabled pass; for clean machines the cached canDispatch/pending
	// pair is still valid (the walker's rescan of a clean machine finds the
	// same head message and drops nothing new, so skipping it is
	// unobservable).
	dirty       bool
	canDispatch bool
	// pending is the queue index of the dispatchable message found by the
	// most recent scan; dispatch consumes it without rescanning.
	pending int
	// scanFrom is where the next rescan may resume: every message in
	// [head, scanFrom) is deferred under the current state and the queue has
	// only been appended to since the last scan, so a walker rescan of that
	// prefix would drop nothing and find nothing. -1 forces a full rescan
	// (after a state change, which re-types deferred messages, or a
	// consumption, which shifts indices).
	scanFrom int
	halted   bool
}

// vobject is a heap object with dense field slots; ref is its heap index,
// which also names it to the race detector.
type vobject struct {
	class  *compiledClass
	ref    int
	fields []vval
}

// vmState is one run's mutable state, recycled through the compiled
// program's pool so steady-state runs allocate almost nothing.
type vmState struct {
	cp       *compiledProgram
	machines []*vmInst
	monitors []*vmInst
	heap     []*vobject
	stack    []vval
	sp       int
	locals   []vval // frame slab; lp is the next free slot
	lp       int
	enabled  []MachineID
	dirtyq   []*vmInst // machines whose scan cache needs refreshing
	sched    Scheduler
	rsched   randomScheduler
	det      *vclock.Detector
	cover    *obs.StateEventCoverage
	steps    int
	rEvent   int32 // raised event carried out of a running block (-1: none)
	rPayload vval
}

func newVMState(cp *compiledProgram) *vmState {
	return &vmState{cp: cp, rEvent: -1}
}

// getVM checks a recycled run state out of the pool and arms it for one run.
func (cp *compiledProgram) getVM(opts Options) *vmState {
	vm := cp.pool.Get().(*vmState)
	vm.steps = 0
	vm.rEvent = -1
	vm.rPayload = vval{}
	vm.sp = 0
	vm.lp = 0
	// Armed runs start from an empty enabled list and dirty worklist.
	vm.enabled = vm.enabled[:0]
	vm.dirtyq = vm.dirtyq[:0]
	if opts.Scheduler != nil {
		vm.sched = opts.Scheduler
	} else {
		vm.rsched.State = opts.Seed
		vm.sched = &vm.rsched
	}
	if opts.RaceDetect {
		vm.det = vclock.NewDetector()
	} else {
		vm.det = nil
	}
	vm.cover = opts.Coverage
	return vm
}

// putVM scrubs references out of the run state and returns it to the pool.
// Instance and object shells (and their slot slices) stay allocated for the
// next run. Value slots are unboxed vvals and hold no pointers, so only the
// queues (whose messages carry vector-clock maps) need clearing.
func (cp *compiledProgram) putVM(vm *vmState) {
	// Message cells are pointer-free; only the clock mirror (populated when
	// the race detector was armed) holds references to release.
	scrub := func(list []*vmInst) []*vmInst {
		for _, m := range list {
			for i := range m.clocks {
				m.clocks[i] = nil
			}
			m.clocks = m.clocks[:0]
			m.queue = m.queue[:0]
			m.head = 0
		}
		return list[:0]
	}
	vm.machines = scrub(vm.machines)
	vm.monitors = scrub(vm.monitors)
	vm.heap = vm.heap[:0]
	vm.sched = nil
	vm.det = nil
	vm.cover = nil
	cp.pool.Put(vm)
}

// runVM is Run for Options.Engine == EngineBytecode: same protocol as the
// walker's run loop, executing compiled code.
func runVM(prog *lang.Program, main string, opts Options) Outcome {
	cp := compiledFor(prog)
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100000
	}
	var md *compiledMachine
	if e := cp.mainCache.Load(); e != nil && e.name == main {
		md = e.cm
	} else {
		decl, ok := prog.MachineByName[main]
		if !ok {
			return Outcome{Err: fmt.Errorf("interp: no machine %q", main)}
		}
		md = cp.machines[decl.Index]
		cp.mainCache.Store(&mainEntry{name: main, cm: md})
	}
	vm := cp.getVM(opts)
	defer cp.putVM(vm)

	var out Outcome
	// Monitors attach before the first machine runs, so they observe every
	// event of the execution, including the main machine's setup sends.
	for _, mon := range cp.monitors {
		if err := vm.attachMonitor(mon); err != nil {
			out.Err = err
			return out
		}
	}
	if _, err := vm.create(md, 0); err != nil {
		out.Err = err
		return out
	}

	// The seeded scheduler is the overwhelmingly common case; calling it
	// directly instead of through the interface saves a dynamic dispatch
	// per step. The scan-refresh and message-consumption phases are inlined
	// into the loop body (each would otherwise be a call per step).
	rs, seeded := vm.sched.(*randomScheduler)
	for vm.steps < maxSteps {
		// Refresh the scan cache of every machine whose queue or state
		// changed, keeping the enabled list in machine-id order (the
		// scheduler picks by position, so list order is part of the
		// schedule and must match the walker's). The worklist is sorted by
		// id so that when several machines hold unhandled events, the
		// fault reported is the lowest-id one, as in the walker's full
		// in-order scan.
		if dq := vm.dirtyq; len(dq) > 0 {
			for i := 1; i < len(dq); i++ {
				for j := i; j > 0 && dq[j-1].id > dq[j].id; j-- {
					dq[j-1], dq[j] = dq[j], dq[j-1]
				}
			}
			var err error
			for _, m := range dq {
				// Fast path (inlined head of nextDispatch): the first
				// unscanned message dispatches directly — FIFO consumption
				// with nothing deferred or ignored.
				i := m.head
				if m.scanFrom > i {
					i = m.scanFrom
				}
				if i < len(m.queue) {
					switch m.state.dispatch[m.queue[i].event].kind {
					case dispatchDo, dispatchGoto:
						m.scanFrom = i
						if !m.canDispatch {
							vm.enabledInsert(m.id)
						}
						m.pending, m.canDispatch, m.dirty = i, true, false
						continue
					}
				}
				var idx int
				var ok bool
				idx, ok, err = vm.nextDispatch(m)
				if err != nil {
					break
				}
				// The enabled list only changes when this machine's
				// dispatchability flipped (a created machine starts
				// canDispatch=false, so it flips on its first enabling
				// scan); flips edit the sorted list in place.
				if ok != m.canDispatch {
					if ok {
						vm.enabledInsert(m.id)
					} else {
						vm.enabledRemove(m.id)
					}
				}
				m.pending, m.canDispatch, m.dirty = idx, ok, false
			}
			if err != nil {
				out.Err = err
				break
			}
			vm.dirtyq = dq[:0]
		}
		if len(vm.enabled) == 0 {
			out.Quiescent = true
			break
		}
		var id MachineID
		if seeded {
			id = rs.Next(vm.enabled)
		} else {
			id = vm.sched.Next(vm.enabled)
		}
		// Consume the pending message the scan found for the chosen
		// machine. Nothing has mutated since that scan (the scheduler
		// merely picked among the enabled ids), so m.pending is valid.
		m := vm.machines[id]
		q := &m.queue[m.pending]
		event, payload := q.event, q.payload
		if vm.det != nil {
			vm.det.Receive(int(m.id), m.clocks[m.pending])
		}
		m.removeQueued(m.pending)
		m.scanFrom = -1
		if !m.dirty {
			m.dirty = true
			vm.dirtyq = append(vm.dirtyq, m)
		}
		vm.steps++
		// nextDispatch only marks dispatchDo/dispatchGoto cells pending,
		// so the handle switch resolves with a single branch.
		d := m.state.dispatch[event]
		if vm.cover != nil {
			vm.coverHit(m, event)
		}
		var err error
		if d.kind == dispatchGoto {
			err = vm.gotoState(m, d.target)
		} else {
			if d.method.nparams == 1 && payload.kind == vUndef {
				payload = d.method.payloadZero
			}
			err = vm.runBlock(m, d.method, payload)
		}
		if err != nil {
			out.Err = err
			break
		}
	}
	out.Steps = vm.steps
	if !out.Quiescent && out.Err == nil {
		out.BoundReached = true
	}
	for _, m := range vm.monitors {
		if m.state.hot {
			out.HotMonitors = append(out.HotMonitors, m.cm.decl.Name)
		}
	}
	if vm.det != nil {
		for _, r := range vm.det.Races() {
			out.Races = append(out.Races, r.String())
		}
	}
	return out
}

// recycleInst extends list by one slot, reviving a shell left behind a
// previous run's truncation when one exists.
func recycleInst(list []*vmInst) ([]*vmInst, *vmInst) {
	n := len(list)
	if n < cap(list) {
		list = list[:n+1]
		if list[n] == nil {
			list[n] = new(vmInst)
		}
		return list, list[n]
	}
	m := new(vmInst)
	return append(list, m), m
}

func initInst(m *vmInst, cm *compiledMachine, id MachineID) {
	m.id = id
	m.cm = cm
	m.state = cm.start
	m.halted = false
	m.queue = m.queue[:0]
	m.clocks = m.clocks[:0]
	m.head = 0
	m.dirty = false
	m.canDispatch = false
	m.scanFrom = -1
	nf := len(cm.fieldZero)
	if cap(m.fields) < nf {
		m.fields = make([]vval, nf)
	}
	m.fields = m.fields[:nf]
	copy(m.fields, cm.fieldZero)
}

// create mirrors Interp.create: allocate, fork the clock, count the step,
// run the start state's entry.
func (vm *vmState) create(cm *compiledMachine, creator MachineID) (MachineID, error) {
	var m *vmInst
	vm.machines, m = recycleInst(vm.machines)
	initInst(m, cm, MachineID(len(vm.machines)-1))
	vm.markDirty(m)
	if vm.det != nil {
		vm.det.Fork(int(creator), int(m.id))
	}
	vm.steps++
	if m.state.entry != nil {
		if err := vm.runBlock(m, m.state.entry, vval{}); err != nil {
			return m.id, err
		}
	}
	return m.id, nil
}

// attachMonitor mirrors Interp.attachMonitor: id -1, never scheduled, entry
// block run on attach.
func (vm *vmState) attachMonitor(cm *compiledMachine) error {
	var m *vmInst
	vm.monitors, m = recycleInst(vm.monitors)
	initInst(m, cm, -1)
	if m.state.entry != nil {
		return vm.runBlock(m, m.state.entry, vval{})
	}
	return nil
}

func (vm *vmState) newObject(cc *compiledClass) Ref {
	n := len(vm.heap)
	var o *vobject
	if n < cap(vm.heap) {
		vm.heap = vm.heap[:n+1]
		if vm.heap[n] == nil {
			vm.heap[n] = new(vobject)
		}
		o = vm.heap[n]
	} else {
		o = new(vobject)
		vm.heap = append(vm.heap, o)
	}
	o.class = cc
	o.ref = n
	nf := len(cc.fieldZero)
	if cap(o.fields) < nf {
		o.fields = make([]vval, nf)
	}
	o.fields = o.fields[:nf]
	copy(o.fields, cc.fieldZero)
	return Ref(n)
}

// markDirty queues machine m for rescanning; monitors are never scheduled
// so they never enter the worklist.
func (vm *vmState) markDirty(m *vmInst) {
	if !m.dirty && m.id >= 0 {
		m.dirty = true
		vm.dirtyq = append(vm.dirtyq, m)
	}
}

// enabledInsert splices id into the enabled list, keeping machine-id order.
func (vm *vmState) enabledInsert(id MachineID) {
	e := append(vm.enabled, id)
	i := len(e) - 1
	for i > 0 && e[i-1] > id {
		e[i] = e[i-1]
		i--
	}
	e[i] = id
	vm.enabled = e
}

func (vm *vmState) enabledRemove(id MachineID) {
	e := vm.enabled
	for i, v := range e {
		if v == id {
			vm.enabled = append(e[:i], e[i+1:]...)
			return
		}
	}
}

func (vm *vmState) nextDispatch(m *vmInst) (idx int, ok bool, err error) {
	i := m.head
	if m.scanFrom > i {
		i = m.scanFrom
	}
	// Fast path: the first unscanned message dispatches directly (FIFO
	// consumption with nothing deferred or ignored — the common case).
	if i < len(m.queue) {
		switch m.state.dispatch[m.queue[i].event].kind {
		case dispatchDo, dispatchGoto:
			m.scanFrom = i
			return i, true, nil
		}
	}
	for i < len(m.queue) {
		event := m.queue[i].event
		switch m.state.dispatch[event].kind {
		case dispatchIgnore:
			m.removeQueued(i)
			if i < m.head {
				i = m.head // head-path removal advanced past i
			}
		case dispatchDefer:
			i++
		case dispatchDo, dispatchGoto:
			m.scanFrom = i
			return i, true, nil
		default:
			return 0, false, fmt.Errorf(
				"interp: machine %s(%d): event %q cannot be handled in state %q",
				m.cm.decl.Name, m.id, vm.cp.events[event], m.state.decl.Name)
		}
	}
	m.scanFrom = i
	return 0, false, nil
}

// removeQueued drops message i. Removing the mailbox head — the common
// case: FIFO consumption with no deferred prefix — just advances head with
// no copying; the queue compacts to its origin whenever it drains.
func (m *vmInst) removeQueued(i int) {
	if i == m.head {
		if len(m.clocks) != 0 {
			m.clocks[i] = nil
		}
		m.head++
		if m.head == len(m.queue) {
			m.queue = m.queue[:0]
			m.clocks = m.clocks[:0]
			m.head = 0
		}
		return
	}
	last := len(m.queue) - 1
	copy(m.queue[i:], m.queue[i+1:])
	m.queue = m.queue[:last]
	if len(m.clocks) != 0 {
		copy(m.clocks[i:], m.clocks[i+1:])
		m.clocks[last] = nil
		m.clocks = m.clocks[:last]
	}
}

// handle runs a transition or bound action for an event.
func (vm *vmState) handle(m *vmInst, event int32, payload vval) error {
	switch d := m.state.dispatch[event]; d.kind {
	case dispatchGoto:
		vm.coverHit(m, event)
		return vm.gotoState(m, d.target)
	case dispatchDo:
		vm.coverHit(m, event)
		if d.method.nparams == 1 && payload.kind == vUndef {
			payload = d.method.payloadZero
		}
		return vm.runBlock(m, d.method, payload)
	default:
		return fmt.Errorf("interp: machine %s(%d): event %q cannot be handled in state %q",
			m.cm.decl.Name, m.id, vm.cp.events[event], m.state.decl.Name)
	}
}

func (vm *vmState) gotoState(m *vmInst, target *compiledState) error {
	m.state = target
	m.scanFrom = -1
	vm.markDirty(m)
	if m.id >= 0 {
		vm.steps++ // monitor transitions are observations, not program steps
	}
	if target.entry != nil {
		return vm.runBlock(m, target.entry, vval{})
	}
	return nil
}

// runBlock executes a handler or entry block on machine m, then processes
// any raised event immediately (bypassing the queue), exactly as the
// walker's runBlock does.
func (vm *vmState) runBlock(m *vmInst, code *compiledCode, payload vval) error {
	// Frame setup (formerly execBody): fresh zeroed locals, optional payload
	// in parameter slot 0. A raised event is left in vm.rEvent and processed
	// below.
	vm.reserveStack(code)
	lb := vm.lp
	vm.lp = lb + code.nlocals
	if vm.lp > len(vm.locals) {
		vm.locals = append(vm.locals, make([]vval, vm.lp-len(vm.locals))...)
	}
	frame := vm.locals[lb:vm.lp]
	if code.needsClear {
		for i := range frame {
			frame[i] = vval{}
		}
	}
	if code.nparams == 1 {
		frame[0] = payload
	}
	_, err := vm.run(code, m, nil, lb)
	vm.lp = lb
	if err != nil {
		return err
	}
	if vm.rEvent >= 0 {
		event, pl := vm.rEvent, vm.rPayload
		vm.rEvent, vm.rPayload = -1, vval{}
		if m.id >= 0 && len(vm.monitors) != 0 {
			// Monitors observe raised program events like sends; a monitor's
			// own raises stay internal to its dispatch.
			if err := vm.observe(event, pl); err != nil {
				return err
			}
		}
		switch d := m.state.dispatch[event]; d.kind {
		case dispatchIgnore:
			return nil
		case dispatchDefer:
			if vm.det != nil {
				m.clocks = append(m.clocks, nil) // raised internally: no send stamp
			}
			m.queue = append(m.queue, vmsg{event: event, payload: pl})
			vm.markDirty(m)
			return nil
		case dispatchGoto:
			// This goto bypasses handle, so it records its own coverage hit.
			vm.coverHit(m, event)
			return vm.gotoState(m, d.target)
		default:
			return vm.handle(m, event, pl)
		}
	}
	return nil
}

func (vm *vmState) observe(event int32, payload vval) error {
	for _, m := range vm.monitors {
		switch m.state.dispatch[event].kind {
		case dispatchNone, dispatchIgnore:
			continue
		default:
			if err := vm.handle(m, event, payload); err != nil {
				return fmt.Errorf("monitor %s: %w", m.cm.decl.Name, err)
			}
		}
	}
	return nil
}

// send mirrors Interp.send plus the walker's SendStmt destination check:
// validate the destination, observe, drop if halted, stamp the clock,
// enqueue.
func (vm *vmState) send(from *vmInst, dst vval, event int32, payload vval, pos int32) error {
	if dst.kind != vMachine || dst.n < 0 || dst.n >= int64(len(vm.machines)) {
		return fmt.Errorf("interp: %s: send to invalid machine %v", vm.cp.poss[pos], dst.value())
	}
	if len(vm.monitors) != 0 {
		if err := vm.observe(event, payload); err != nil {
			return err
		}
	}
	to := vm.machines[dst.n]
	if to.halted {
		return nil
	}
	if vm.det != nil {
		to.clocks = append(to.clocks, vm.det.Send(int(from.id)))
	}
	to.queue = append(to.queue, vmsg{event: event, payload: payload})
	// An append to a machine whose cached scan already found a dispatchable
	// message changes nothing the scan observes: the new message sits after
	// pending, and the ignorable prefix was already consumed. Only machines
	// without a dispatchable message need rescanning.
	if !to.canDispatch {
		vm.markDirty(to)
	}
	return nil
}

func (vm *vmState) coverHit(m *vmInst, event int32) {
	if vm.cover == nil || m.id < 0 {
		return
	}
	vm.cover.Hit(m.cm.decl.Name, m.state.decl.Name, vm.cp.events[event])
}

func (vm *vmState) raceAccess(self *vmInst, o *vobject, slot int32, kind vclock.AccessKind) {
	if vm.det == nil || self.id < 0 {
		return // monitor reads are specification-level, not program accesses
	}
	loc := fmt.Sprintf("%s#%d.%s", o.class.decl.Name, o.ref, o.class.fieldNames[slot])
	vm.det.Access(int(self.id), loc, kind)
}

// reserveStack grows the operand stack (kept at full length; sp is the
// watermark) so the next code.maxstack pushes stay in bounds and the
// instruction loop never needs a growth check.
func (vm *vmState) reserveStack(code *compiledCode) {
	if n := vm.sp + code.maxstack; n > len(vm.stack) {
		vm.stack = append(vm.stack, make([]vval, n-len(vm.stack))...)
	}
}

// invoke runs a method call: args are read from the operand stack at
// argBase (the caller has already logically popped them — copy first,
// before any push can overwrite). A raise inside a nested call is the
// walker's unsupported-raise fault.
func (vm *vmState) invoke(callee *compiledCode, self *vmInst, obj *vobject, argBase, argc int, pos int32) (vval, error) {
	vm.reserveStack(callee)
	lb := vm.lp
	vm.lp = lb + callee.nlocals
	if vm.lp > len(vm.locals) {
		vm.locals = append(vm.locals, make([]vval, vm.lp-len(vm.locals))...)
	}
	frame := vm.locals[lb:vm.lp]
	np := callee.nparams
	if np > argc {
		np = argc // class-confused call with too few args: params stay undefined
	}
	for i := 0; i < np; i++ {
		frame[i] = vm.stack[argBase+i]
	}
	for i := np; i < callee.nparams; i++ {
		frame[i] = vval{} // class-confused short call: missing params read as undefined
	}
	if callee.needsClear {
		for i := callee.nparams; i < callee.nlocals; i++ {
			frame[i] = vval{}
		}
	}
	ret, err := vm.run(callee, self, obj, lb)
	vm.lp = lb
	if err != nil {
		return vval{}, err
	}
	if vm.rEvent >= 0 {
		vm.rEvent, vm.rPayload = -1, vval{}
		return vval{}, fmt.Errorf("interp: %s: raise inside a nested method call is not supported", vm.cp.poss[pos])
	}
	if ret.kind == vUndef {
		ret = vval{kind: vNull} // a void method call evaluates to null
	}
	return ret, nil
}

// run is the instruction loop for one frame. self is the machine (or
// monitor) whose fields opLoadMField addresses; obj is non-nil inside class
// methods. The returned Value is the frame's return value (nil for void).
//
// The operand stack is worked through function-local stack/sp so the hot
// path stays in registers; vm.sp is synced before the four ops that can
// re-enter the interpreter (send, create, and the two calls — any of which
// may run nested frames or grow vm.stack) and at every return. Nested
// frames leave vm.sp balanced, so only the stack slice needs reloading.
func (vm *vmState) run(code *compiledCode, self *vmInst, obj *vobject, lb int) (vval, error) {
	frame := vm.locals[lb : lb+code.nlocals]
	ins := code.ins
	stack := vm.stack
	sp := vm.sp
	for pc := 0; pc < len(ins); pc++ {
		in := &ins[pc]
		switch in.Op {
		case opPushInt:
			stack[sp] = vval{n: int64(in.A), kind: vInt}
			sp++
		case opPushConst:
			stack[sp] = vm.cp.consts[in.A]
			sp++
		case opPushTrue:
			stack[sp] = vval{n: 1, kind: vBool}
			sp++
		case opPushFalse:
			stack[sp] = vval{kind: vBool}
			sp++
		case opPushNull:
			stack[sp] = vval{kind: vNull}
			sp++
		case opPop:
			sp--
		case opLoadLocal:
			v := frame[in.A]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, in.A)
			}
			stack[sp] = v
			sp++
		case opStoreLocal:
			sp--
			frame[in.A] = stack[sp]
		case opDeclLocal:
			frame[in.A] = zeroByKind[in.B]
		case opLoadMField:
			stack[sp] = self.fields[in.A]
			sp++
		case opStoreMField:
			sp--
			self.fields[in.A] = stack[sp]
		case opLoadOField:
			if vm.det != nil {
				vm.raceAccess(self, obj, in.A, vclock.Read)
			}
			stack[sp] = obj.fields[in.A]
			sp++
		case opStoreOField:
			if vm.det != nil {
				vm.raceAccess(self, obj, in.A, vclock.Write)
			}
			sp--
			obj.fields[in.A] = stack[sp]
		case opJump:
			pc = int(in.A) - 1
		case opJumpFalse:
			sp--
			if !stack[sp].asBool() {
				pc = int(in.A) - 1
			}
		case opJumpTrue:
			sp--
			if stack[sp].asBool() {
				pc = int(in.A) - 1
			}
		case opNot:
			stack[sp-1] = vbool(!stack[sp-1].asBool())
		case opNeg:
			stack[sp-1] = vint(-stack[sp-1].asInt())
		case opAdd:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			sp--
			stack[sp-1] = vval{n: l + r, kind: vInt}
		case opSub:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			sp--
			stack[sp-1] = vval{n: l - r, kind: vInt}
		case opMul:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			sp--
			stack[sp-1] = vval{n: l * r, kind: vInt}
		case opDiv:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			if r == 0 {
				vm.sp = sp
				return vval{}, vm.divZeroErr(in.Pos, "division")
			}
			sp--
			stack[sp-1] = vval{n: l / r, kind: vInt}
		case opMod:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			if r == 0 {
				vm.sp = sp
				return vval{}, vm.divZeroErr(in.Pos, "modulo")
			}
			sp--
			stack[sp-1] = vval{n: l % r, kind: vInt}
		case opLt:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			sp--
			stack[sp-1] = vbool(l < r)
		case opLe:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			sp--
			stack[sp-1] = vbool(l <= r)
		case opGt:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			sp--
			stack[sp-1] = vbool(l > r)
		case opGe:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErr(in)
			}
			sp--
			stack[sp-1] = vbool(l >= r)
		case opEq:
			sp--
			stack[sp-1] = vbool(stack[sp-1] == stack[sp])
		case opNe:
			sp--
			stack[sp-1] = vbool(stack[sp-1] != stack[sp])
		case opLoopCheck:
			n := frame[in.A].n
			if n > 1_000_000 {
				vm.sp = sp
				return vval{}, vm.loopErr(in.Pos)
			}
			frame[in.A].n = n + 1
		case opAssert:
			sp--
			if !stack[sp].asBool() {
				vm.sp = sp
				return vval{}, vm.assertErr(in.Pos)
			}
		case opSend:
			var payload vval
			if in.B == 1 {
				sp--
				payload = stack[sp]
			}
			sp--
			dst := stack[sp]
			vm.sp = sp
			if err := vm.send(self, dst, in.A, payload, in.Pos); err != nil {
				return vval{}, err
			}
			stack = vm.stack
		case opRaise:
			if in.B == 1 {
				sp--
				vm.rPayload = stack[sp]
			} else {
				vm.rPayload = vval{}
			}
			vm.rEvent = in.A
			vm.sp = sp
			return vval{}, nil
		case opReturn:
			if in.A == 1 {
				sp--
				vm.sp = sp
				return stack[sp], nil
			}
			vm.sp = sp
			return vval{}, nil
		case opCallSelf:
			var callee *compiledCode
			var cobj *vobject
			if code.class != nil {
				callee = code.class.methods[in.A]
				cobj = obj
			} else {
				callee = code.machine.methods[in.A]
			}
			sp -= callee.nparams
			if f := callee.accessor; f >= 0 && cobj != nil {
				if vm.det != nil {
					vm.raceAccess(self, cobj, f, vclock.Read)
				}
				stack[sp] = cobj.fields[f]
				sp++
				break
			}
			vm.sp = sp
			v, err := vm.invoke(callee, self, cobj, sp, callee.nparams, in.Pos)
			if err != nil {
				return vval{}, err
			}
			stack = vm.stack
			stack[sp] = v
			sp++
		case opCheckRecv:
			if stack[sp-1].kind != vRef {
				vm.sp = sp
				return vval{}, vm.nullCallErr(in.Pos)
			}
			if vm.heap[stack[sp-1].n].class.byName[in.A] == nil {
				vm.sp = sp
				return vval{}, vm.noMethodErr(in.Pos, in.A)
			}
		case opCallObj:
			argc := int(in.B)
			sp -= argc + 1
			o := vm.heap[stack[sp].n] // opCheckRecv validated the Ref
			callee := o.class.byName[in.A]
			if f := callee.accessor; f >= 0 && argc == 0 {
				// The body is a lone getter (opRetOField): read the field in
				// place instead of pushing a frame. The race-detector read is
				// the callee's only observable.
				if vm.det != nil {
					vm.raceAccess(self, o, f, vclock.Read)
				}
				stack[sp] = o.fields[f]
				sp++
				break
			}
			vm.sp = sp
			v, err := vm.invoke(callee, self, o, sp+1, argc, in.Pos)
			if err != nil {
				return vval{}, err
			}
			stack = vm.stack
			stack[sp] = v
			sp++
		case opCreate:
			vm.sp = sp
			id, err := vm.create(vm.cp.machines[in.A], self.id)
			if err != nil {
				return vval{}, err
			}
			stack = vm.stack
			stack[sp] = vmach(id)
			sp++
		case opNew:
			stack[sp] = vref(vm.newObject(vm.cp.classes[in.A]))
			sp++
		case opBadThis:
			vm.sp = sp
			return vval{}, fmt.Errorf("interp: %s: bare this is not a value", vm.cp.poss[in.Pos])
		case opStoreLoad:
			frame[in.A] = stack[sp-1]
			v := frame[in.B]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, in.B)
			}
			stack[sp-1] = v
		case opMFieldToLocal:
			frame[in.B] = self.fields[in.A]
		case opLocalToMField:
			v := frame[in.A]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, in.A)
			}
			self.fields[in.B] = v
		case opLoadPushInt:
			v := frame[in.A]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, in.A)
			}
			stack[sp] = v
			stack[sp+1] = vval{n: int64(in.B), kind: vInt}
			sp += 2
		case opEqInt:
			stack[sp-1] = vbool(stack[sp-1] == vval{n: int64(in.A), kind: vInt})
		case opDecl2:
			frame[in.A&declMask] = zeroByKind[in.A>>declShift]
			frame[in.B&declMask] = zeroByKind[in.B>>declShift]
		case opLoad2:
			v := frame[in.A&loadMask]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.B, in.A&loadMask)
			}
			w := frame[in.A>>loadShift]
			if w.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, in.A>>loadShift)
			}
			stack[sp] = v
			stack[sp+1] = w
			sp += 2
		case opCallMethod:
			if stack[sp-1].kind != vRef {
				vm.sp = sp
				return vval{}, vm.nullCallErr(in.Pos)
			}
			o := vm.heap[stack[sp-1].n]
			callee := o.class.byName[in.A]
			if callee == nil {
				vm.sp = sp
				return vval{}, vm.noMethodErr(in.Pos, in.A)
			}
			sp--
			if f := callee.accessor; f >= 0 {
				if vm.det != nil {
					vm.raceAccess(self, o, f, vclock.Read)
				}
				stack[sp] = o.fields[f]
				sp++
				break
			}
			vm.sp = sp
			v, err := vm.invoke(callee, self, o, sp+1, 0, in.Pos)
			if err != nil {
				return vval{}, err
			}
			stack = vm.stack
			stack[sp] = v
			sp++
		case opIntToMField:
			self.fields[in.B] = vval{n: int64(in.A), kind: vInt}
		case opMFieldPushInt:
			stack[sp] = self.fields[in.A]
			stack[sp+1] = vval{n: int64(in.B), kind: vInt}
			sp += 2
		case opCmpJF:
			cond, ok := cmpEval(Opcode(in.B), stack[sp-2], stack[sp-1])
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(in.Pos, Opcode(in.B))
			}
			sp -= 2
			if !cond {
				pc = int(in.A) - 1
			}
		case opAssertCmp:
			cond, ok := cmpEval(Opcode(in.B), stack[sp-2], stack[sp-1])
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(in.A, Opcode(in.B))
			}
			sp -= 2
			if !cond {
				vm.sp = sp
				return vval{}, vm.assertErr(in.Pos)
			}
		case opSendLL:
			ax := code.aux[in.B : in.B+3]
			v := frame[in.A&loadMask]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[0], in.A&loadMask)
			}
			w := frame[in.A>>loadShift]
			if w.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[1], in.A>>loadShift)
			}
			vm.sp = sp
			if err := vm.send(self, v, ax[2], w, in.Pos); err != nil {
				return vval{}, err
			}
			stack = vm.stack
		case opAddToMField:
			l, r, ok := int2(stack, sp)
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(in.Pos, opAdd)
			}
			sp -= 2
			self.fields[in.A] = vval{n: l + r, kind: vInt}
		case opLocalCallMethod:
			v := frame[in.A&loadMask]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.B, in.A&loadMask)
			}
			if v.kind != vRef {
				vm.sp = sp
				return vval{}, vm.nullCallErr(in.Pos)
			}
			o := vm.heap[v.n]
			callee := o.class.byName[in.A>>loadShift]
			if callee == nil {
				vm.sp = sp
				return vval{}, vm.noMethodErr(in.Pos, in.A>>loadShift)
			}
			if f := callee.accessor; f >= 0 {
				if vm.det != nil {
					vm.raceAccess(self, o, f, vclock.Read)
				}
				stack[sp] = o.fields[f]
				sp++
				break
			}
			vm.sp = sp
			r, err := vm.invoke(callee, self, o, sp+1, 0, in.Pos)
			if err != nil {
				return vval{}, err
			}
			stack = vm.stack
			stack[sp] = r
			sp++
		case opLocalToOField:
			v := frame[in.A]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, in.A)
			}
			if vm.det != nil {
				vm.raceAccess(self, obj, in.B, vclock.Write)
			}
			obj.fields[in.B] = v
		case opMFieldAddInt:
			v := self.fields[in.A]
			if v.kind != vInt {
				vm.sp = sp
				return vval{}, vm.intsErrAt(in.Pos, opAdd)
			}
			stack[sp] = vval{n: v.n + int64(in.B), kind: vInt}
			sp++
		case opLIntCmpJF:
			ax := code.aux[in.B : in.B+4]
			v := frame[ax[0]]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, ax[0])
			}
			cond, ok := cmpEval(Opcode(ax[2]), v, vval{n: int64(ax[1]), kind: vInt})
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(ax[3], Opcode(ax[2]))
			}
			if !cond {
				pc = int(in.A) - 1
			}
		case opStoreRetLocal:
			frame[in.A] = stack[sp-1]
			v := frame[in.B]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, in.B)
			}
			sp--
			vm.sp = sp
			return v, nil
		case opDeclLoadOField:
			frame[in.A&declMask] = zeroByKind[in.A>>declShift]
			if vm.det != nil {
				vm.raceAccess(self, obj, in.B, vclock.Read)
			}
			stack[sp] = obj.fields[in.B]
			sp++
		case opRetOField:
			if vm.det != nil {
				vm.raceAccess(self, obj, in.A, vclock.Read)
			}
			vm.sp = sp
			return obj.fields[in.A], nil
		case opMFSendLL:
			ax := code.aux[in.B : in.B+5]
			frame[ax[4]] = self.fields[ax[3]]
			v := frame[in.A&loadMask]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[0], in.A&loadMask)
			}
			w := frame[in.A>>loadShift]
			if w.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[1], in.A>>loadShift)
			}
			vm.sp = sp
			if err := vm.send(self, v, ax[2], w, in.Pos); err != nil {
				return vval{}, err
			}
			stack = vm.stack
		case opMFAddIntToMF:
			v := self.fields[in.A&loadMask]
			if v.kind != vInt {
				vm.sp = sp
				return vval{}, vm.intsErrAt(in.Pos, opAdd)
			}
			self.fields[in.A>>loadShift] = vval{n: v.n + int64(in.B), kind: vInt}
		case opCallObjVoid:
			argc := int(in.B)
			sp -= argc + 1
			o := vm.heap[stack[sp].n] // opCheckRecv validated the Ref
			callee := o.class.byName[in.A]
			if f := callee.accessor; f >= 0 && argc == 0 {
				if vm.det != nil {
					vm.raceAccess(self, o, f, vclock.Read)
				}
				break
			}
			vm.sp = sp
			if _, err := vm.invoke(callee, self, o, sp+1, argc, in.Pos); err != nil {
				return vval{}, err
			}
			stack = vm.stack
		case opMF2L2:
			frame[in.A>>loadShift] = self.fields[in.A&loadMask]
			frame[in.B>>loadShift] = self.fields[in.B&loadMask]
		case opDecl2MF2L:
			ax := code.aux[in.B : in.B+3]
			frame[in.A&declMask] = zeroByKind[in.A>>declShift]
			frame[ax[0]&declMask] = zeroByKind[ax[0]>>declShift]
			frame[ax[2]] = self.fields[ax[1]]
		case opNewStoreLoad:
			r := vref(vm.newObject(vm.cp.classes[in.A&loadMask]))
			frame[in.A>>loadShift] = r
			v := frame[in.B]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, in.B)
			}
			stack[sp] = v
			sp++
		case opCreateStore:
			vm.sp = sp
			id, err := vm.create(vm.cp.machines[in.A], self.id)
			if err != nil {
				return vval{}, err
			}
			stack = vm.stack
			frame[in.B] = vmach(id)
		case opSendLL2:
			for k := int32(0); k < 2; k++ {
				ax := code.aux[in.B+5*k : in.B+5*k+5]
				pa := ax[0]
				v := frame[pa&loadMask]
				if v.kind == vUndef {
					vm.sp = sp
					return vval{}, vm.undefErr(code, ax[1], pa&loadMask)
				}
				w := frame[pa>>loadShift]
				if w.kind == vUndef {
					vm.sp = sp
					return vval{}, vm.undefErr(code, ax[2], pa>>loadShift)
				}
				vm.sp = sp
				if err := vm.send(self, v, ax[3], w, ax[4]); err != nil {
					return vval{}, err
				}
			}
			stack = vm.stack
		case opLIntCmpJFL2MF:
			ax := code.aux[in.B : in.B+7]
			v := frame[ax[0]]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, ax[0])
			}
			cond, ok := cmpEval(Opcode(ax[2]), v, vval{n: int64(ax[1]), kind: vInt})
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(ax[3], Opcode(ax[2]))
			}
			if !cond {
				pc = int(in.A) - 1
				break
			}
			w := frame[ax[4]]
			if w.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[6], ax[4])
			}
			self.fields[ax[5]] = w
		case opMFIntAssert:
			ax := code.aux[in.B : in.B+4]
			cond, ok := cmpEval(Opcode(ax[2]), self.fields[ax[0]], vval{n: int64(ax[1]), kind: vInt})
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(ax[3], Opcode(ax[2]))
			}
			if !cond {
				vm.sp = sp
				return vval{}, vm.assertErr(in.Pos)
			}
		case opL2OF2:
			ax := code.aux[in.B : in.B+6]
			v := frame[ax[0]]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[2], ax[0])
			}
			if vm.det != nil {
				vm.raceAccess(self, obj, ax[1], vclock.Write)
			}
			obj.fields[ax[1]] = v
			w := frame[ax[3]]
			if w.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[5], ax[3])
			}
			if vm.det != nil {
				vm.raceAccess(self, obj, ax[4], vclock.Write)
			}
			obj.fields[ax[4]] = w
		case opDecl3:
			frame[in.A&declMask] = zeroByKind[in.A>>declShift]
			frame[in.B&declMask] = zeroByKind[in.B>>declShift]
			frame[in.Pos&declMask] = zeroByKind[in.Pos>>declShift]
		case opLAddIntToMF:
			ax := code.aux[in.B : in.B+5]
			v := frame[ax[0]]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[2], ax[0])
			}
			if v.kind != vInt {
				vm.sp = sp
				return vval{}, vm.intsErrAt(ax[4], opAdd)
			}
			self.fields[ax[3]] = vval{n: v.n + int64(ax[1]), kind: vInt}
		case opLocalCallMethodSL:
			ax := code.aux[in.B : in.B+4]
			v := frame[in.A&loadMask]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[0], in.A&loadMask)
			}
			if v.kind != vRef {
				vm.sp = sp
				return vval{}, vm.nullCallErr(in.Pos)
			}
			o := vm.heap[v.n]
			callee := o.class.byName[in.A>>loadShift]
			if callee == nil {
				vm.sp = sp
				return vval{}, vm.noMethodErr(in.Pos, in.A>>loadShift)
			}
			var r vval
			if f := callee.accessor; f >= 0 {
				if vm.det != nil {
					vm.raceAccess(self, o, f, vclock.Read)
				}
				r = o.fields[f]
			} else {
				vm.sp = sp
				var err error
				r, err = vm.invoke(callee, self, o, sp+1, 0, in.Pos)
				if err != nil {
					return vval{}, err
				}
				stack = vm.stack
			}
			frame[ax[1]] = r
			w := frame[ax[2]]
			if w.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[3], ax[2])
			}
			stack[sp] = w
			sp++
		case opCallMethodSL:
			ax := code.aux[in.B : in.B+3]
			if stack[sp-1].kind != vRef {
				vm.sp = sp
				return vval{}, vm.nullCallErr(in.Pos)
			}
			o := vm.heap[stack[sp-1].n]
			callee := o.class.byName[in.A]
			if callee == nil {
				vm.sp = sp
				return vval{}, vm.noMethodErr(in.Pos, in.A)
			}
			sp--
			var r vval
			if f := callee.accessor; f >= 0 {
				if vm.det != nil {
					vm.raceAccess(self, o, f, vclock.Read)
				}
				r = o.fields[f]
			} else {
				vm.sp = sp
				var err error
				r, err = vm.invoke(callee, self, o, sp+1, 0, in.Pos)
				if err != nil {
					return vval{}, err
				}
				stack = vm.stack
			}
			frame[ax[0]] = r
			w := frame[ax[1]]
			if w.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[2], ax[1])
			}
			stack[sp] = w
			sp++
		case opLoopLIntCmpJF:
			ax := code.aux[in.B : in.B+6]
			n := frame[ax[0]].n
			if n > 1_000_000 {
				vm.sp = sp
				return vval{}, fmt.Errorf("interp: %s: while loop exceeded 1e6 iterations", vm.cp.poss[ax[1]])
			}
			frame[ax[0]].n = n + 1
			v := frame[ax[2]]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, ax[2])
			}
			cond, ok := cmpEval(Opcode(ax[4]), v, vval{n: int64(ax[3]), kind: vInt})
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(ax[5], Opcode(ax[4]))
			}
			if !cond {
				pc = int(in.A) - 1
			}
		case opStoreJump:
			sp--
			frame[in.B] = stack[sp]
			pc = int(in.A) - 1
		case opSendLI:
			ax := code.aux[in.B : in.B+4]
			v := frame[ax[0]]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[3], ax[0])
			}
			vm.sp = sp
			if err := vm.send(self, v, ax[2], vval{n: int64(ax[1]), kind: vInt}, in.Pos); err != nil {
				return vval{}, err
			}
			stack = vm.stack
		case opLIntAssert:
			ax := code.aux[in.B : in.B+5]
			v := frame[ax[0]]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, ax[4], ax[0])
			}
			cond, ok := cmpEval(Opcode(ax[2]), v, vval{n: int64(ax[1]), kind: vInt})
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(ax[3], Opcode(ax[2]))
			}
			if !cond {
				vm.sp = sp
				return vval{}, vm.assertErr(in.Pos)
			}
		case opCheckRecvPushInt:
			if stack[sp-1].kind != vRef {
				vm.sp = sp
				return vval{}, vm.nullCallErr(in.Pos)
			}
			if vm.heap[stack[sp-1].n].class.byName[in.A] == nil {
				vm.sp = sp
				return vval{}, vm.noMethodErr(in.Pos, in.A)
			}
			stack[sp] = vval{n: int64(in.B), kind: vInt}
			sp++
		case opMFIntCmpJF:
			ax := code.aux[in.B : in.B+4]
			cond, ok := cmpEval(Opcode(ax[2]), self.fields[ax[0]], vval{n: int64(ax[1]), kind: vInt})
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(ax[3], Opcode(ax[2]))
			}
			if !cond {
				pc = int(in.A) - 1
			}
		case opLIntCmpJFMF2L:
			ax := code.aux[in.B : in.B+6]
			v := frame[ax[0]]
			if v.kind == vUndef {
				vm.sp = sp
				return vval{}, vm.undefErr(code, in.Pos, ax[0])
			}
			cond, ok := cmpEval(Opcode(ax[2]), v, vval{n: int64(ax[1]), kind: vInt})
			if !ok {
				vm.sp = sp
				return vval{}, vm.intsErrAt(ax[3], Opcode(ax[2]))
			}
			if !cond {
				pc = int(in.A) - 1
				break
			}
			frame[ax[5]] = self.fields[ax[4]]
		case opPushIntCallObjVoid:
			stack[sp] = vval{n: int64(in.B), kind: vInt}
			sp++
			sp -= 2
			o := vm.heap[stack[sp].n] // opCheckRecv validated the Ref
			callee := o.class.byName[in.A]
			vm.sp = sp
			if _, err := vm.invoke(callee, self, o, sp+1, 1, in.Pos); err != nil {
				return vval{}, err
			}
			stack = vm.stack
		}
	}
	vm.sp = sp
	return vval{}, nil
}

// int2 reads the two operands of an integer op from the stack top; the
// caller adjusts sp. Small enough to inline into the instruction loop.
func int2(stack []vval, sp int) (int64, int64, bool) {
	l := stack[sp-2]
	r := stack[sp-1]
	return l.n, r.n, l.kind == vInt && r.kind == vInt
}

// Fault constructors stay out of line: a fmt.Errorf call site expands to
// ~100 bytes of argument-boxing code, and with dozens of fault paths inside
// the instruction switch the inline form dilutes the loop's
// instruction-cache locality.

//go:noinline
func (vm *vmState) undefErr(code *compiledCode, pos, slot int32) error {
	return fmt.Errorf("interp: %s: undefined variable %q", vm.cp.poss[pos], code.localNames[slot])
}

//go:noinline
func (vm *vmState) nullCallErr(pos int32) error {
	return fmt.Errorf("interp: %s: method call on null or non-object", vm.cp.poss[pos])
}

//go:noinline
func (vm *vmState) noMethodErr(pos, name int32) error {
	return fmt.Errorf("interp: %s: no method %q", vm.cp.poss[pos], vm.cp.methodNames[name])
}

//go:noinline
func (vm *vmState) assertErr(pos int32) error {
	return assertionError{msg: "at " + vm.cp.poss[pos]}
}

//go:noinline
func (vm *vmState) divZeroErr(pos int32, what string) error {
	return fmt.Errorf("interp: %s: %s by zero", vm.cp.poss[pos], what)
}

//go:noinline
func (vm *vmState) loopErr(pos int32) error {
	return fmt.Errorf("interp: %s: while loop exceeded 1e6 iterations", vm.cp.poss[pos])
}

//go:noinline
func (vm *vmState) intsErr(in *Instr) error {
	return vm.intsErrAt(in.Pos, in.Op)
}

//go:noinline
func (vm *vmState) intsErrAt(pos int32, op Opcode) error {
	return fmt.Errorf("interp: %s: %q requires integers", vm.cp.poss[pos], opSymbol(op))
}

// cmpEval evaluates a fused comparison on its two operands; ok is false
// when an ordered comparison sees a non-integer (the walker's fault).
func cmpEval(op Opcode, l, r vval) (cond, ok bool) {
	switch op {
	case opEq:
		return l == r, true
	case opNe:
		return l != r, true
	}
	if l.kind != vInt || r.kind != vInt {
		return false, false
	}
	switch op {
	case opLt:
		cond = l.n < r.n
	case opLe:
		cond = l.n <= r.n
	case opGt:
		cond = l.n > r.n
	case opGe:
		cond = l.n >= r.n
	}
	return cond, true
}

package psharp

import (
	"slices"

	"github.com/psharp-go/psharp/internal/vclock"
)

// TestHarness runs bug-finding iterations of one program repeatedly while
// recycling every piece of per-iteration machinery: the serialized Runtime,
// machine instances with their Contexts, event-queue slices and parked
// coroutines, and the trace buffer. Rebuilding all of that dominated the
// cost of short schedules, so an exploration engine that calls Run
// thousands of times (the paper's Table 2 setup) should hold one harness
// per worker instead of calling RunTest per iteration.
//
// Under a strategy that says how much of the previous iteration the next one
// repeats (PrefixResumer: the depth-first strategies of the sct package) the
// harness goes one step further than recycling machinery: it keeps snapshots
// of the program at scheduling points — a machine in the middle of a handler
// held as it began the handler, and rebuilt by running it again — and starts
// an iteration from the deepest one inside the repeated prefix instead of
// from setup, which then does not run. The results are those of running from
// setup — a
// restored scheduling point is a point of the schedule in every count and in
// the Trace; IterationResult.RestoredPoints says how many there were — as
// long as the program keeps its state in its machines, monitors and events
// and its handlers are deterministic functions of that state, their events
// and their controlled choices: see checkpoint.go for the rules and for what
// is never checkpointed (closure-form machines, Faults, RaceDetect, an
// execution log, state a copy would not be faithful to).
//
// A harness is NOT safe for concurrent use: each exploration worker owns its
// own. Close hands the idle machine instances and the trace buffer to a
// process-wide reserve that later harnesses draw from; after Close the
// harness must not be used again.
//
// Machines run as coroutines of the goroutine that calls Run — the
// strategy's Decide, Interrupt and StateCache.Visit are called from their
// stacks as well as from Run's — and a testing Runtime's sends and creates
// take no lock (see controller). Using the Runtime setup received from another goroutine
// (SendEvent, CreateMachine) is unsupported: it always broke determinism,
// now it is also a data race. The reserve passes coroutines between
// harnesses, so harnesses must not be driven from goroutines wired to an OS
// thread (runtime.LockOSThread): the Go runtime refuses to switch a
// coroutine across thread-lock states.
type TestHarness struct {
	setup  func(*Runtime)
	rt     *Runtime
	c      *controller
	closed bool
}

// NewTestHarness returns a harness that executes the program constructed by
// setup. setup runs once per Run call — except for a Run that starts from a
// checkpoint — against a recycled Runtime. What an iteration runs with —
// strategy, coverage set, execution log — is its TestConfig's: the harness
// takes no Runtime Option (WithSeed, WithLog and WithCoverage configure the
// production runtime).
//
// A Run that starts from a checkpoint (depth-first strategies only, see
// TestHarness) runs on copies of the machines' logic values — or, for a
// machine the previous Run did not change past the checkpoint and that shares
// no memory with one rebuilt, on the logic value that Run left — and on the
// factories the last setup call that did run registered. For its results to
// be those of a run from setup, factories must be pure — build the logic
// value from constants and from what every call of setup computes alike — and
// setup must not allocate state that machines change and reach through a
// closure (a "network" or "disk" a factory captured): hand such an object
// over in a creation payload or an event, where a checkpoint copies it along
// with the machines that share it. A pointer setup keeps to a logic value is,
// after such a Run, not the value the machine ran on. Nothing detects a
// program that breaks this; it is searched as a different program.
//
// A machine or monitor type is compiled once per process for each probe
// value (see Register; closure-form machines excepted), so a new harness
// over a program another harness or a replay already ran compiles nothing.
// The harness also keeps its runtime's name→schema bindings across
// iterations: setup re-registers its machine types every Run, but a name
// already bound is neither probed nor looked up again, so static-form
// machines pay zero schema allocations from iteration 2 on. This assumes
// setup registers the same declaration under the same type name every
// iteration — which any deterministic setup does.
func NewTestHarness(setup func(*Runtime)) *TestHarness {
	rt := NewRuntime()
	c := &controller{rt: rt, trace: &Trace{Decisions: traceReserve.take()}, names: namesReserve.take()}
	rt.test = c
	return &TestHarness{setup: setup, rt: rt, c: c}
}

// Run executes one bug-finding iteration, exactly like RunTest but against
// the harness's recycled machinery.
//
// A harness that holds checkpoints leaves the iteration's machines where it
// ended when Run returns, for the next Run to keep those its restore can (see
// checkpoint.go); that Run tears down the rest, and Close all of them. A
// strategy panic, and any Run of a harness without checkpoints, tears the
// iteration down before Run returns.
//
// The returned result's Trace aliases the harness's reusable buffer: it is
// valid only until the next Run call or Close, whichever comes first (Close
// hands the buffer to the next harness). Callers that retain it (to replay a
// bug later) must copy it with Trace.Clone first.
func (h *TestHarness) Run(cfg TestConfig) IterationResult {
	if cfg.Strategy == nil {
		panic("psharp: TestHarness.Run requires a Strategy")
	}
	if h.closed {
		panic("psharp: Run on a closed TestHarness")
	}
	h.reset(cfg)
	c := h.c
	if c.rewind() == 0 {
		// No checkpoint inside what this iteration repeats of the last one:
		// the program starts where the user's setup leaves it, once what the
		// last Run left is torn down.
		c.idle()
		clear(h.rt.factories)
		h.setup(h.rt)
	}
	c.loop()
	if c.ck == nil || c.panicked != nil {
		c.teardown(c.rt.machines)
	}
	c.nameMachines()
	// However the iteration ended — quiescence, bug, interrupt, a panic of
	// the strategy — what it counted becomes visible in Runtime.Metrics now.
	h.rt.metrics.fold(c.counts)
	h.rt.cover.fold()
	if v := c.panicked; v != nil {
		// The strategy panicked inside a pass, possibly on a machine's
		// stack. Teardown has unwound every handler since, so the instances
		// are recycled like any iteration's (the harness stays usable and
		// can Close) before the caller sees the panic it would have seen
		// had the pass run on its own stack.
		c.idle()
		panic(v)
	}
	res := IterationResult{
		Bug:              c.bug,
		Interrupted:      c.interrupted,
		Pruned:           c.pruned,
		BoundReached:     c.bound,
		SchedulingPoints: c.steps,
		RestoredPoints:   c.restored,
		ContinuedPoints:  c.continued,
		Machines:         len(h.rt.machines),
		Trace:            c.trace,
		Faults:           c.faults,
		Err:              c.err,
	}
	if c.unchecked != nil {
		res.LivenessUnchecked = c.unchecked
	}
	if c.hasher != nil {
		res.ReplayedPoints = c.hasher.replayed
	}
	if c.det != nil {
		for _, r := range c.det.Races() {
			res.Races = append(res.Races, r.String())
		}
	}
	if c.ck == nil {
		c.idle()
	}
	return res
}

// nameMachines points the trace's Types at the types of the iteration's
// machines. The table outlives the iteration: a trace that was handed out, or
// a clone of it, reads it later, so an entry once written is never
// overwritten. A program that creates the same machines every iteration finds
// them all in place and allocates nothing; a machine of another type at a Seq
// the table names starts a new table. A closing harness hands its table on
// through namesReserve, so the harness that replays a bug of the same program
// allocates none either.
func (c *controller) nameMachines() {
	ms, names := c.rt.machines, c.names
	i := 0
	for ; i < len(ms) && i < len(names); i++ {
		if names[i] != ms[i].id.Type {
			names = slices.Clip(names[:i]) // the next append copies
			break
		}
	}
	if i < len(ms) {
		names = slices.Grow(names, len(ms)-i)
		for _, m := range ms[i:] {
			names = append(names, m.id.Type)
		}
		c.names = names
	}
	c.trace.Types = names[:len(ms):len(ms)] // an append to it copies
}

// reset rewinds the runtime and controller to their pre-setup state while
// retaining every allocation: all slices are truncated with their capacity
// kept. The schema bindings (rt.schemas and rt.monitorSchemas) deliberately
// survive: schemas are per-type, not per-iteration, so looking them up again
// would be pure waste. The registered factories and the
// trace of the previous iteration survive until Run knows where this one
// starts (controller.rewind): an iteration restored from a checkpoint keeps
// both.
func (h *TestHarness) reset(cfg TestConfig) {
	rt, c := h.rt, h.c
	rt.nextSeq = 0
	rt.failure = nil
	rt.stopped.Store(false)
	rt.cover.attach(cfg.Coverage, true)
	rt.logw = cfg.Log

	c.cfg = cfg
	c.setDecider()
	c.faults = FaultStats{}
	c.ready = c.ready[:0]
	c.current = MachineID{}
	c.steps, c.continued = 0, 0
	c.counts = iterationCounts{}
	c.panicked = nil
	c.bug = nil
	c.bound = false
	c.interrupted = false
	c.aborting = false
	c.restored, c.resumedOn, c.err, c.unchecked = 0, MachineID{}, nil, nil
	c.det = nil
	if cfg.RaceDetect {
		c.det = vclock.NewDetector()
	}
}

// Close tears down the machines the last Run left (see Run), drops the
// harness's checkpoints and donates its idle machine instances and its trace
// buffer to the process-wide reserve (retiring the coroutines of any beyond
// its cap):
// the Trace of the last Run's result is invalid from here on. The harness
// must be idle (no Run in progress); using it after Close panics.
func (h *TestHarness) Close() {
	if h.closed {
		return
	}
	h.closed = true
	h.c.idle()
	h.c.ck = nil
	donateInstances(h.c.free)
	h.c.free = nil
	donateTrace(h.c.trace.Decisions)
	h.c.trace.Decisions = nil
	if len(h.c.names) > 0 {
		namesReserve.put(h.c.names, traceReserveCap)
		h.c.names = nil
	}
}

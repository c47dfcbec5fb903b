package psharp

import (
	"slices"

	"github.com/psharp-go/psharp/obs"
)

// RuntimeMetrics are the runtime's always-on operational counters: every
// field is a fixed-size atomic from the obs package, so recording costs one
// atomic op and never allocates — cheap enough to leave on in production.
// A testing runtime records into plain words of its controller instead
// (iterationCounts: its execution is serialized, and three lock-prefixed
// adds a send were a measurable share of a scheduling point) and adds them
// here once, when the iteration ends. A production send counts Sends and
// MailboxMax per receiving machine, in plain words under the mailbox lock it
// holds anyway (machineInstance.sends, mailboxMax), and Runtime.Metrics sums
// them with these.
type RuntimeMetrics struct {
	// Sends counts events successfully enqueued (machine sends, environment
	// sends, and internal re-queues of deferred raised events).
	Sends obs.Counter
	// DroppedSends counts events discarded because the target had halted.
	DroppedSends obs.Counter
	// HaltDropped counts events that were enqueued (and counted in Sends)
	// but dropped from the mailbox by the halt of their target, or by a
	// fault-injection crash that does not preserve it: what Sends counts and
	// no handler took.
	HaltDropped obs.Counter
	// MonitorDispatches counts (event, monitor) observation dispatches.
	MonitorDispatches obs.Counter
	// Creates counts machine instances created.
	Creates obs.Counter
	// MailboxMax is the high-water mark of any machine's mailbox depth, as
	// each send found it. In production the mailbox is the owner's queue
	// plus the inbox senders append to while the machine is active (see
	// machineInstance.mu), the queue counted as the owner last reported it
	// under the mailbox lock: the owner dequeues without it, so between two
	// of its splices the depth read can be high by what it dequeued since.
	MailboxMax obs.MaxGauge
}

// iterationCounts is RuntimeMetrics for one bug-finding iteration, without
// the atomics.
type iterationCounts struct {
	sends, dropped, haltDropped, monitorDispatches, creates, mailboxMax int64
}

// fold adds one finished iteration's counts.
func (m *RuntimeMetrics) fold(n iterationCounts) {
	m.Sends.Add(n.sends)
	m.DroppedSends.Add(n.dropped)
	m.HaltDropped.Add(n.haltDropped)
	m.MonitorDispatches.Add(n.monitorDispatches)
	m.Creates.Add(n.creates)
	m.MailboxMax.Observe(n.mailboxMax)
}

// RuntimeMetricsSnapshot is the JSON-friendly view of RuntimeMetrics.
type RuntimeMetricsSnapshot struct {
	Sends             int64 `json:"sends"`
	DroppedSends      int64 `json:"dropped_sends"`
	HaltDropped       int64 `json:"halt_dropped"`
	MonitorDispatches int64 `json:"monitor_dispatches"`
	Creates           int64 `json:"creates"`
	MailboxMax        int64 `json:"mailbox_max"`
}

// Metrics snapshots the runtime's operational counters. Under a TestHarness
// the counters accumulate across recycled iterations, so the snapshot
// describes the whole campaign, not the last schedule. They count what was
// executed: an iteration that starts from a checkpoint (see PrefixResumer)
// adds the sends, creates and monitor dispatches it made from there on, not
// those of the scheduling points it restored — as sct's Report.PrunedPoints
// counts what pruned iterations ran. And they become
// visible an iteration at a time: TestHarness.Run adds an iteration's counts
// as it returns (or panics with the strategy's panic), so a snapshot taken
// from inside a handler, a monitor or the strategy does not yet include the
// iteration that is running.
//
// In production Sends and MailboxMax are summed over the machines, each read
// under its mailbox lock.
func (r *Runtime) Metrics() RuntimeMetricsSnapshot {
	s := RuntimeMetricsSnapshot{
		Sends:             r.metrics.Sends.Load(),
		DroppedSends:      r.metrics.DroppedSends.Load(),
		HaltDropped:       r.metrics.HaltDropped.Load(),
		MonitorDispatches: r.metrics.MonitorDispatches.Load(),
		Creates:           r.metrics.Creates.Load(),
		MailboxMax:        r.metrics.MailboxMax.Load(),
	}
	if t := r.table.Load(); t != nil {
		for _, m := range *t {
			m.mu.Lock()
			s.Sends += m.sends
			s.MailboxMax = max(s.MailboxMax, m.mailboxMax)
			m.mu.Unlock()
		}
	}
	return s
}

// WithCoverage attaches a state-transition coverage set to a production
// runtime: every handled (machine type, state, event) dispatch is recorded
// into it. Bug-finding iterations attach coverage via TestConfig.Coverage
// instead, so one set can accumulate across a whole exploration campaign.
func WithCoverage(cov *obs.StateEventCoverage) Option {
	return func(r *Runtime) { r.cover.attach(cov, false) }
}

// coverage is a runtime's side of its coverage set: the set's counters of
// the transitions of every schema the runtime's machines ran, resolved once
// per schema, in one block each. Under a controller (counted) a dispatch adds
// one to a plain word of counts, and TestHarness.Run folds them into the
// set's counters when the iteration ends, as it folds iterationCounts into
// RuntimeMetrics; a production dispatch adds to the set's counter itself.
// Which one a block does is fixed when it is made, so a machine's dispatch
// asks its block, not the runtime's mode.
type coverage struct {
	set     *obs.StateEventCoverage
	counted bool
	blocks  []*coverBlock
	// counts holds the testing runtime's dispatches not folded yet, by
	// block base plus binding slot. The array is written at every dispatch
	// by the worker that owns the harness, so it ends in a cache line of
	// its own (cacheLineWords of capacity past the last slot): another
	// worker's array or strategy allocated right after it never shares the
	// line its last counts are on.
	counts []int64
}

// cacheLineWords is a 64-byte cache line in counts.
const cacheLineWords = 8

// coverBlock holds the counters of schema's transitions, by slot, and where
// they start in counts, which it points to if its coverage is counted.
type coverBlock struct {
	schema *compiledSchema
	base   int
	ctrs   []*obs.TransitionCounter
	counts *[]int64
}

// add records one dispatch of the transition in slot.
func (b *coverBlock) add(slot int32) {
	if b.counts != nil {
		(*b.counts)[b.base+int(slot)]++
	} else {
		b.ctrs[slot].Add(1)
	}
}

// attach makes set the one dispatches are recorded into, counted in plain
// words under a controller; the blocks of another set are dropped.
func (cv *coverage) attach(set *obs.StateEventCoverage, counted bool) {
	if set != cv.set {
		*cv = coverage{set: set, counted: counted, counts: cv.counts[:0]}
	}
}

// block returns the block of a machine that runs schema, nil when there is
// no set. A schema compiled per create (the closure form) shares the block
// of the first one with the same transitions, so a runtime that creates
// such machines iteration after iteration keeps one block for them. In
// production the caller holds r.mu.
func (cv *coverage) block(schema *compiledSchema) *coverBlock {
	if cv.set == nil {
		return nil
	}
	for _, b := range cv.blocks {
		if b.schema == schema || slices.Equal(b.schema.transitions, schema.transitions) {
			return b
		}
	}
	b := &coverBlock{schema: schema, base: len(cv.counts), ctrs: make([]*obs.TransitionCounter, len(schema.transitions))}
	for i, t := range schema.transitions {
		b.ctrs[i] = cv.set.Counter(t)
	}
	if cv.counted {
		b.counts = &cv.counts
	}
	cv.blocks = append(cv.blocks, b)
	n := b.base + len(b.ctrs)
	if n+cacheLineWords > cap(cv.counts) {
		counts := make([]int64, n, n+cacheLineWords)
		copy(counts, cv.counts)
		cv.counts = counts
	}
	cv.counts = cv.counts[:n]
	return b
}

// fold adds the counts of a finished iteration to the set and zeroes them.
func (cv *coverage) fold() {
	for _, b := range cv.blocks {
		counts := cv.counts[b.base : b.base+len(b.ctrs)]
		for i, n := range counts {
			if n != 0 {
				b.ctrs[i].Add(n)
				counts[i] = 0
			}
		}
	}
}

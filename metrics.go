package psharp

import "github.com/psharp-go/psharp/obs"

// RuntimeMetrics are the runtime's always-on operational counters: every
// field is a fixed-size atomic from the obs package, so recording costs one
// atomic op and never allocates — cheap enough to leave on in production.
// A testing runtime records into plain words of its controller instead
// (iterationCounts: its execution is serialized, and three lock-prefixed
// adds a send were a measurable share of a scheduling point) and adds them
// here once, when the iteration ends.
type RuntimeMetrics struct {
	// Sends counts events successfully enqueued (machine sends, environment
	// sends, and internal re-queues of deferred raised events).
	Sends obs.Counter
	// DroppedSends counts events discarded because the target had halted.
	DroppedSends obs.Counter
	// MonitorDispatches counts (event, monitor) observation dispatches.
	MonitorDispatches obs.Counter
	// Creates counts machine instances created.
	Creates obs.Counter
	// MailboxMax is the high-water mark of any machine's queue depth.
	MailboxMax obs.MaxGauge
}

// iterationCounts is RuntimeMetrics for one bug-finding iteration, without
// the atomics.
type iterationCounts struct {
	sends, dropped, monitorDispatches, creates, mailboxMax int64
}

// fold adds one finished iteration's counts.
func (m *RuntimeMetrics) fold(n iterationCounts) {
	m.Sends.Add(n.sends)
	m.DroppedSends.Add(n.dropped)
	m.MonitorDispatches.Add(n.monitorDispatches)
	m.Creates.Add(n.creates)
	m.MailboxMax.Observe(n.mailboxMax)
}

// RuntimeMetricsSnapshot is the JSON-friendly view of RuntimeMetrics.
type RuntimeMetricsSnapshot struct {
	Sends             int64 `json:"sends"`
	DroppedSends      int64 `json:"dropped_sends"`
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
func (r *Runtime) Metrics() RuntimeMetricsSnapshot {
	return RuntimeMetricsSnapshot{
		Sends:             r.metrics.Sends.Load(),
		DroppedSends:      r.metrics.DroppedSends.Load(),
		MonitorDispatches: r.metrics.MonitorDispatches.Load(),
		Creates:           r.metrics.Creates.Load(),
		MailboxMax:        r.metrics.MailboxMax.Load(),
	}
}

// WithCoverage attaches a state-transition coverage set to a production
// runtime: every handled (machine type, state, event) dispatch is recorded
// into it. Bug-finding iterations attach coverage via TestConfig.Coverage
// instead, so one set can accumulate across a whole exploration campaign.
func WithCoverage(cov *obs.StateEventCoverage) Option {
	return func(r *Runtime) { r.cover = cov }
}

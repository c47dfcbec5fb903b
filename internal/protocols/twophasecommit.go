package protocols

import "github.com/psharp-go/psharp"

// The two-phase distributed commit protocol (paper reference [13], ported
// from the P benchmark suite): a coordinator machine runs a series of
// transactions against participant machines. For each transaction the
// coordinator collects votes (participants decide nondeterministically, as
// resource managers do), with a timer machine modeling the vote-collection
// timeout: if the timeout fires before all votes arrive, the transaction
// aborts. A checker machine receives every participant's per-transaction
// outcome and asserts atomicity — for a given transaction, either everyone
// committed or everyone aborted.
//
// After announcing a decision the coordinator persists it through a
// write-ahead log machine and sits in a transient Logging state until the
// log acknowledges. The buggy variant is the paper's most common bug class:
// the coordinator forgets that a straggler vote from a timed-out
// transaction can still arrive while it is Logging; the correct coordinator
// discards such stale votes, the buggy one reports an unhandled event. The
// bug needs the timeout to win the race against both votes and the stale
// vote to land inside the logging window — a rare combination, matching the
// paper's 3% buggy schedules.

type tpcParticipantConfig struct {
	psharp.EventBase
	Coordinator psharp.MachineID
	Checker     psharp.MachineID
}

type tpcCoordinatorConfig struct {
	psharp.EventBase
	Participants []psharp.MachineID
	Timer        psharp.MachineID
	Logger       psharp.MachineID
	Transactions int
}

type tpcPrepare struct {
	psharp.EventBase
	Tx int
}

type tpcVote struct {
	psharp.EventBase
	Tx     int
	Commit bool
	From   psharp.MachineID
}

type tpcDecision struct {
	psharp.EventBase
	Tx     int
	Commit bool
}

type tpcOutcome struct {
	psharp.EventBase
	Tx     int
	Commit bool
	From   psharp.MachineID
}

type tpcStartTimer struct {
	psharp.EventBase
	Tx int
}

type tpcTimeout struct {
	psharp.EventBase
	Tx int
}

type tpcWriteLog struct {
	psharp.EventBase
	Tx int
}

type tpcLogAck struct {
	psharp.EventBase
	Tx int
}

type tpcCoordinator struct {
	psharp.StaticBase
	participants []psharp.MachineID
	timer        psharp.MachineID
	logger       psharp.MachineID
	transactions int
	buggy        bool

	tx       int
	votes    int
	commitOK bool
}

// ConfigureType declares the coordinator's schema once per registered type;
// buggy is a registration parameter the factory bakes into the probe.
func (probe *tpcCoordinator) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		OnEventDoM(&tpcCoordinatorConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*tpcCoordinator)
			cfg := ev.(*tpcCoordinatorConfig)
			c.participants = cfg.Participants
			c.timer = cfg.Timer
			c.logger = cfg.Logger
			c.transactions = cfg.Transactions
			ctx.Goto("Deciding")
		})

	sc.State("Deciding").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*tpcCoordinator)
			c.tx++
			if c.tx > c.transactions {
				for _, p := range c.participants {
					ctx.Send(p, &psharp.HaltEvent{})
				}
				ctx.Send(c.timer, &psharp.HaltEvent{})
				ctx.Send(c.logger, &psharp.HaltEvent{})
				ctx.Halt()
				return
			}
			c.votes = 0
			c.commitOK = true
			for _, p := range c.participants {
				ctx.Send(p, &tpcPrepare{Tx: c.tx})
			}
			ctx.Send(c.timer, &tpcStartTimer{Tx: c.tx})
			ctx.Goto("WaitVotes")
		})

	logging := sc.State("Logging")
	logging.OnEventGoto(&tpcLogAck{}, "Deciding")
	// Stale timeouts from transactions that decided on full votes drift in
	// while the decision is being logged.
	logging.OnEventDoM(&tpcTimeout{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {})
	if !probe.buggy {
		// The fix: a vote for an aborted (timed-out) transaction can still
		// arrive while the decision is being logged; discard it.
		logging.OnEventDoM(&tpcVote{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*tpcCoordinator)
			v := ev.(*tpcVote)
			ctx.Assert(v.Tx <= c.tx, "future vote for tx %d while logging tx %d", v.Tx, c.tx)
		})
	}

	sc.State("WaitVotes").
		OnEventDoM(&tpcVote{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*tpcCoordinator)
			v := ev.(*tpcVote)
			if v.Tx != c.tx {
				return // stale vote from a previous, timed-out transaction
			}
			c.votes++
			ctx.Write("coordinator.votes")
			if !v.Commit {
				c.commitOK = false
			}
			if c.votes < len(c.participants) {
				return
			}
			c.decide(ctx, c.commitOK)
		}).
		OnEventDoM(&tpcTimeout{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*tpcCoordinator)
			if ev.(*tpcTimeout).Tx != c.tx {
				return // stale timeout from an earlier transaction
			}
			c.decide(ctx, false)
		})
}

func (c *tpcCoordinator) decide(ctx *psharp.Context, commit bool) {
	for _, p := range c.participants {
		ctx.Send(p, &tpcDecision{Tx: c.tx, Commit: commit})
	}
	ctx.Send(c.logger, &tpcWriteLog{Tx: c.tx})
	ctx.Goto("Logging")
}

// tpcLogger is the coordinator's write-ahead log.
type tpcLogger struct {
	psharp.StaticBase
	coordinator psharp.MachineID
}

func (*tpcLogger) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&tpcWriteLog{}).
		OnEventDoM(&tpcTimerConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			m.(*tpcLogger).coordinator = ev.(*tpcTimerConfig).Coordinator
			ctx.Goto("Ready")
		})
	sc.State("Ready").
		OnEventDoM(&tpcWriteLog{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Write("coordinator.log")
			ctx.Send(m.(*tpcLogger).coordinator, &tpcLogAck{Tx: ev.(*tpcWriteLog).Tx})
		})
}

type tpcParticipant struct {
	psharp.StaticBase
	coordinator psharp.MachineID
	checker     psharp.MachineID
}

func (*tpcParticipant) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&tpcPrepare{}).
		Defer(&tpcDecision{}).
		OnEventDoM(&tpcParticipantConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*tpcParticipant)
			cfg := ev.(*tpcParticipantConfig)
			p.coordinator = cfg.Coordinator
			p.checker = cfg.Checker
			ctx.Goto("Working")
		})
	sc.State("Working").
		OnEventDoM(&tpcPrepare{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			prep := ev.(*tpcPrepare)
			// Resource managers are free to vote either way; this is the
			// nondeterministic environment the paper models explicitly.
			ctx.Send(m.(*tpcParticipant).coordinator, &tpcVote{Tx: prep.Tx, Commit: ctx.RandomBool(), From: ctx.ID()})
		}).
		OnEventDoM(&tpcDecision{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			d := ev.(*tpcDecision)
			ctx.Write("participant.log")
			ctx.Send(m.(*tpcParticipant).checker, &tpcOutcome{Tx: d.Tx, Commit: d.Commit, From: ctx.ID()})
		})
}

// tpcChecker asserts per-transaction atomicity. Outcomes are keyed by
// transaction, so cross-machine message reordering cannot produce false
// alarms. The outcome map is per-instance state, so the factory (not the
// type-level declaration) initializes it.
type tpcChecker struct {
	psharp.StaticBase
	outcome map[int]bool
}

func (*tpcChecker) ConfigureType(sc *psharp.Schema) {
	sc.Start("Checking").
		OnEventDoM(&tpcOutcome{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ch := m.(*tpcChecker)
			o := ev.(*tpcOutcome)
			prev, seen := ch.outcome[o.Tx]
			if !seen {
				ch.outcome[o.Tx] = o.Commit
				return
			}
			ctx.Assert(prev == o.Commit,
				"atomicity violated for tx %d: %s saw commit=%v, earlier participant saw %v",
				o.Tx, o.From, o.Commit, prev)
		})
}

// tpcAtomicityMonitor is the monitor-expressed form of the atomicity
// specification: it observes every tpcOutcome send (the instant a
// participant reports, before the checker machine even dequeues it) and
// asserts that all outcomes of one transaction agree. Unlike tpcChecker it
// is not a machine in the program — it adds no machine, no queue and no
// scheduling points, so the explored schedules are identical with and
// without it.
type tpcAtomicityMonitor struct {
	psharp.StaticBase
	outcome map[int]bool
}

func (*tpcAtomicityMonitor) ConfigureType(sc *psharp.Schema) {
	sc.Start("Observing").
		OnEventDoM(&tpcOutcome{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			mon := m.(*tpcAtomicityMonitor)
			o := ev.(*tpcOutcome)
			prev, seen := mon.outcome[o.Tx]
			if !seen {
				mon.outcome[o.Tx] = o.Commit
				return
			}
			// Branch before Assert: the variadic arguments would otherwise be
			// boxed on every observation, and this runs on the send hot path.
			if prev != o.Commit {
				ctx.Assert(false,
					"atomicity violated for tx %d: %s reported commit=%v, earlier participant reported %v",
					o.Tx, o.From, o.Commit, prev)
			}
		})
}

// tpcTimerConfig configures the timer and logger machines.
type tpcTimerConfig struct {
	psharp.EventBase
	Coordinator psharp.MachineID
}

// tpcTimer races a timeout against the coordinator's vote collection; the
// scheduling of its response is the timing nondeterminism.
type tpcTimer struct {
	psharp.StaticBase
	coordinator psharp.MachineID
}

func (*tpcTimer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&tpcStartTimer{}).
		OnEventDoM(&tpcTimerConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			m.(*tpcTimer).coordinator = ev.(*tpcTimerConfig).Coordinator
			ctx.Goto("Armed")
		})
	sc.State("Armed").
		OnEventDoM(&tpcStartTimer{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			// The timeout ticks twice through the timer's own queue before
			// firing, modeling a timeout long enough that it usually loses
			// the race against the votes — which is what makes the buggy
			// coordinator's missing stale-vote handler a rare (paper: 3%)
			// bug rather than a frequent one.
			ctx.Send(ctx.ID(), &tpcTick{Tx: ev.(*tpcStartTimer).Tx, Left: 4})
		}).
		OnEventDoM(&tpcTick{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			tick := ev.(*tpcTick)
			if tick.Left > 0 {
				ctx.Send(ctx.ID(), &tpcTick{Tx: tick.Tx, Left: tick.Left - 1})
				return
			}
			ctx.Send(m.(*tpcTimer).coordinator, &tpcTimeout{Tx: tick.Tx})
		})
}

// tpcTick paces the timer's countdown through its own queue.
type tpcTick struct {
	psharp.EventBase
	Tx   int
	Left int
}

func twoPhaseCommitBenchmark(buggy bool) Benchmark {
	const numParticipants = 2
	const transactions = 3
	return Benchmark{
		Name:     "TwoPhaseCommit",
		Buggy:    buggy,
		MaxSteps: 2000,
		Machines: numParticipants + 3,
		Setup: func(r *psharp.Runtime) {
			r.MustRegister("TPCCoordinator", func() psharp.Machine { return &tpcCoordinator{buggy: buggy} })
			r.MustRegister("TPCParticipant", func() psharp.Machine { return &tpcParticipant{} })
			r.MustRegister("TPCChecker", func() psharp.Machine { return &tpcChecker{outcome: make(map[int]bool)} })
			r.MustRegister("TPCTimer", func() psharp.Machine { return &tpcTimer{} })
			r.MustRegister("TPCLogger", func() psharp.Machine { return &tpcLogger{} })
			checker := r.MustCreate("TPCChecker", nil)
			coord := r.MustCreate("TPCCoordinator", nil)
			timer := r.MustCreate("TPCTimer", nil)
			logger := r.MustCreate("TPCLogger", nil)
			mustSend(r, timer, &tpcTimerConfig{Coordinator: coord})
			mustSend(r, logger, &tpcTimerConfig{Coordinator: coord})
			parts := make([]psharp.MachineID, numParticipants)
			for i := range parts {
				parts[i] = r.MustCreate("TPCParticipant", nil)
				mustSend(r, parts[i], &tpcParticipantConfig{Coordinator: coord, Checker: checker})
			}
			mustSend(r, coord, &tpcCoordinatorConfig{
				Participants: parts, Timer: timer, Logger: logger, Transactions: transactions,
			})
		},
		Monitors: func(r *psharp.Runtime) {
			r.MustRegisterMonitor("Atomicity", func() psharp.Machine {
				return &tpcAtomicityMonitor{outcome: make(map[int]bool)}
			})
		},
	}
}

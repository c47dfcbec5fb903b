package protocols

import "github.com/psharp-go/psharp"

// Lamport's single-decree Paxos (paper reference [16], ported from the P
// benchmark suite): two proposer machines compete to get their values
// chosen by three acceptor machines; a learner machine observes accepted
// ballots and asserts the protocol's safety property — only a single value
// is ever chosen.
//
// The paper injected an artificial bug into this benchmark; we do the same
// with a classic one: the buggy acceptor forgets to persist a promise when
// it has not yet accepted any value, so an earlier proposer's phase-2
// request slips past a newer promise. When the two proposers' rounds
// overlap, both can assemble majorities for different values; when they run
// back to back nothing goes wrong. That makes the bug invisible to a DFS
// exploration whose early schedules are near-sequential, while the random
// scheduler — which interleaves the proposers almost always — hits it in a
// large fraction of schedules, matching the paper's 83% and its DFS miss.

type pxConfig struct {
	psharp.EventBase
	Acceptors  []psharp.MachineID
	Learner    psharp.MachineID
	Registry   psharp.MachineID
	Value      int
	BallotOff  int // proposer index, for globally unique ballots
	StartDelay int // self-paced ticks before the first prepare
}

// pxStartTick paces a proposer's delayed start through its own queue.
type pxStartTick struct {
	psharp.EventBase
	Left int
}

type pxPrepare struct {
	psharp.EventBase
	Ballot   int
	Proposer psharp.MachineID
}

type pxPromise struct {
	psharp.EventBase
	Ballot         int // the ballot being promised
	AcceptedBallot int // 0 when nothing accepted yet
	AcceptedValue  int
}

type pxNack struct {
	psharp.EventBase
	Ballot   int
	Promised int
}

type pxAccept struct {
	psharp.EventBase
	Ballot   int
	Value    int
	Proposer psharp.MachineID
}

type pxAccepted struct {
	psharp.EventBase
	Ballot int
	Value  int
}

type pxPersist struct {
	psharp.EventBase
	Ballot   int
	Proposer psharp.MachineID
}

type pxPersistAck struct {
	psharp.EventBase
	Ballot int
}

// pxAcceptor implements the acceptor role. The injected bug is a runtime
// branch on the buggy instance field (not a schema difference), so the
// static schema is shared by both variants.
type pxAcceptor struct {
	psharp.StaticBase
	learner        psharp.MachineID
	promised       int
	acceptedBallot int
	acceptedValue  int
	buggy          bool
}

type pxAcceptorConfig struct {
	psharp.EventBase
	Learner psharp.MachineID
}

func (*pxAcceptor) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&pxPrepare{}).
		Defer(&pxAccept{}).
		OnEventDoM(&pxAcceptorConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			m.(*pxAcceptor).learner = ev.(*pxAcceptorConfig).Learner
			ctx.Goto("Active")
		})
	sc.State("Active").
		OnEventDoM(&pxPrepare{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			a := m.(*pxAcceptor)
			p := ev.(*pxPrepare)
			if p.Ballot <= a.promised {
				ctx.Send(p.Proposer, &pxNack{Ballot: p.Ballot, Promised: a.promised})
				return
			}
			if !(a.buggy && a.acceptedBallot == 0) {
				// The injected bug: an acceptor that has not accepted
				// anything yet forgets to persist its promise, so an older
				// in-flight phase-2 request is not rejected later.
				a.promised = p.Ballot
			}
			ctx.Write("acceptor.promised")
			ctx.Send(p.Proposer, &pxPromise{
				Ballot:         p.Ballot,
				AcceptedBallot: a.acceptedBallot,
				AcceptedValue:  a.acceptedValue,
			})
		}).
		OnEventDoM(&pxAccept{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			a := m.(*pxAcceptor)
			acc := ev.(*pxAccept)
			if acc.Ballot < a.promised {
				ctx.Send(acc.Proposer, &pxNack{Ballot: acc.Ballot, Promised: a.promised})
				return
			}
			a.promised = acc.Ballot
			a.acceptedBallot = acc.Ballot
			a.acceptedValue = acc.Value
			ctx.Write("acceptor.accepted")
			ctx.Send(a.learner, &pxAccepted{Ballot: acc.Ballot, Value: acc.Value})
		})
}

// pxProposer runs phases 1 and 2, retrying with a higher ballot on
// rejection, up to a bounded number of rounds.
type pxProposer struct {
	psharp.StaticBase
	acceptors []psharp.MachineID
	learner   psharp.MachineID
	registry  psharp.MachineID
	myValue   int
	ballotOff int

	round        int
	retriesLeft  int
	ballot       int
	promises     int
	bestBallot   int
	bestValue    int
	acceptsOK    int
	majorityNeed int
}

func (*pxProposer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		OnEventDoM(&pxConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*pxProposer)
			cfg := ev.(*pxConfig)
			p.acceptors = cfg.Acceptors
			p.learner = cfg.Learner
			p.registry = cfg.Registry
			p.myValue = cfg.Value
			p.ballotOff = cfg.BallotOff
			p.retriesLeft = 3
			p.majorityNeed = len(p.acceptors)/2 + 1
			if cfg.StartDelay > 0 {
				ctx.Send(ctx.ID(), &pxStartTick{Left: cfg.StartDelay})
				return
			}
			ctx.Goto("Phase1")
		}).
		OnEventDoM(&pxStartTick{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			t := ev.(*pxStartTick)
			if t.Left > 1 {
				ctx.Send(ctx.ID(), &pxStartTick{Left: t.Left - 1})
				return
			}
			ctx.Goto("Phase1")
		})

	sc.State("Phase1").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*pxProposer)
			p.round++
			p.ballot = p.round*10 + p.ballotOff
			p.promises = 0
			p.bestBallot = 0
			p.bestValue = 0
			for _, a := range p.acceptors {
				ctx.Send(a, &pxPrepare{Ballot: p.ballot, Proposer: ctx.ID()})
			}
		}).
		OnEventDoM(&pxPromise{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*pxProposer)
			pr := ev.(*pxPromise)
			if pr.Ballot != p.ballot {
				return // stale promise from an earlier round
			}
			p.promises++
			if pr.AcceptedBallot > p.bestBallot {
				p.bestBallot = pr.AcceptedBallot
				p.bestValue = pr.AcceptedValue
			}
			if p.promises == p.majorityNeed {
				// Persist the won ballot before streaming accepts, as a
				// production proposer must before acting on its leadership.
				ctx.Send(p.registry, &pxPersist{Ballot: p.ballot, Proposer: ctx.ID()})
				ctx.Goto("Persisting")
			}
		}).
		OnEventDoM(&pxNack{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*pxProposer)
			if ev.(*pxNack).Ballot != p.ballot {
				return
			}
			p.retry(ctx)
		}).
		// A persist acknowledgement from a ballot abandoned by a retry.
		OnEventDoM(&pxPersistAck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*pxProposer)
			ctx.Assert(ev.(*pxPersistAck).Ballot != p.ballot,
				"persist ack for the current ballot %d before persisting", p.ballot)
		})

	sc.State("Persisting").
		OnEventDoM(&pxPersistAck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			if ev.(*pxPersistAck).Ballot != m.(*pxProposer).ballot {
				return
			}
			ctx.Goto("Phase2")
		}).
		OnEventDoM(&pxNack{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*pxProposer)
			if ev.(*pxNack).Ballot != p.ballot {
				return
			}
			p.retry(ctx)
		}).
		Ignore(&pxPromise{})

	sc.State("Phase2").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*pxProposer)
			value := p.myValue
			if p.bestBallot > 0 {
				// Paxos's value-adoption rule: propose the value of the
				// highest-ballot accepted proposal reported in the promises.
				value = p.bestValue
			}
			p.acceptsOK = 0
			for _, a := range p.acceptors {
				ctx.Send(a, &pxAccept{Ballot: p.ballot, Value: value, Proposer: ctx.ID()})
			}
		}).
		OnEventDoM(&pxNack{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*pxProposer)
			if ev.(*pxNack).Ballot != p.ballot {
				return
			}
			p.retry(ctx)
		}).
		Ignore(&pxPromise{})

	sc.State("Done").
		Ignore(&pxPromise{}).
		Ignore(&pxNack{}).
		Ignore(&pxPersistAck{})

	sc.State("Phase2").
		Ignore(&pxPersistAck{})
}

// pxRegistry persists proposer ballots (one round trip between winning
// phase 1 and streaming phase-2 accepts, widening the window in which the
// proposers' rounds overlap).
type pxRegistry struct{ psharp.StaticBase }

func (*pxRegistry) ConfigureType(sc *psharp.Schema) {
	sc.Start("Ready").
		OnEventDoM(&pxPersist{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			// Writing the ballot durably takes a beat: the write request
			// passes through the registry's own queue once before the
			// acknowledgement goes out.
			ctx.Send(ctx.ID(), &pxPersistDone{Inner: ev.(*pxPersist)})
		}).
		OnEventDoM(&pxPersistDone{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			per := ev.(*pxPersistDone).Inner
			ctx.Write("registry.ballots")
			ctx.Send(per.Proposer, &pxPersistAck{Ballot: per.Ballot})
		})
}

// pxPersistDone paces the registry's durable write through its own queue.
type pxPersistDone struct {
	psharp.EventBase
	Inner *pxPersist
}

func (p *pxProposer) retry(ctx *psharp.Context) {
	if p.retriesLeft == 0 {
		ctx.Goto("Done")
		return
	}
	p.retriesLeft--
	ctx.Goto("Phase1")
}

// pxLearner watches accepted ballots; once some ballot reaches a majority
// its value is chosen, and every chosen value must be identical.
type pxLearner struct {
	psharp.StaticBase
	majorityNeed int
	perBallot    map[int]int
	valueOf      map[int]int
	chosen       int
	hasChosen    bool
}

type pxLearnerConfig struct {
	psharp.EventBase
	NumAcceptors int
}

func (*pxLearner) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&pxAccepted{}).
		OnEventDoM(&pxLearnerConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			m.(*pxLearner).majorityNeed = ev.(*pxLearnerConfig).NumAcceptors/2 + 1
			ctx.Goto("Learning")
		})
	sc.State("Learning").
		OnEventDoM(&pxAccepted{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			l := m.(*pxLearner)
			acc := ev.(*pxAccepted)
			l.perBallot[acc.Ballot]++
			l.valueOf[acc.Ballot] = acc.Value
			ctx.Write("learner.chosen")
			if l.perBallot[acc.Ballot] < l.majorityNeed {
				return
			}
			if !l.hasChosen {
				l.hasChosen = true
				l.chosen = acc.Value
				return
			}
			ctx.Assert(l.chosen == acc.Value,
				"two different values chosen: %d (earlier) and %d (ballot %d)",
				l.chosen, acc.Value, acc.Ballot)
		})
}

func basicPaxosBenchmark(buggy bool) Benchmark {
	const numAcceptors = 3
	return Benchmark{
		Name:     "BasicPaxos",
		Buggy:    buggy,
		MaxSteps: 2000,
		Machines: numAcceptors + 3,
		Setup: func(r *psharp.Runtime) {
			r.MustRegister("PaxosAcceptor", func() psharp.Machine { return &pxAcceptor{buggy: buggy} })
			r.MustRegister("PaxosProposer", func() psharp.Machine { return &pxProposer{} })
			r.MustRegister("PaxosLearner", func() psharp.Machine {
				return &pxLearner{perBallot: make(map[int]int), valueOf: make(map[int]int)}
			})
			r.MustRegister("PaxosRegistry", func() psharp.Machine { return &pxRegistry{} })
			learner := r.MustCreate("PaxosLearner", nil)
			registry := r.MustCreate("PaxosRegistry", nil)
			mustSend(r, learner, &pxLearnerConfig{NumAcceptors: numAcceptors})
			acceptors := make([]psharp.MachineID, numAcceptors)
			for i := range acceptors {
				acceptors[i] = r.MustCreate("PaxosAcceptor", nil)
				mustSend(r, acceptors[i], &pxAcceptorConfig{Learner: learner})
			}
			// The second proposer starts a few self-paced ticks later, so
			// its phase 1 typically lands inside the first proposer's
			// prepare/persist window, where the injected acceptor bug
			// bites (the paper reports 83% buggy schedules).
			for i, v := range []int{101, 202} {
				prop := r.MustCreate("PaxosProposer", nil)
				mustSend(r, prop, &pxConfig{
					Acceptors: acceptors, Learner: learner, Registry: registry,
					Value: v, BallotOff: i + 1, StartDelay: i * 3,
				})
			}
		},
	}
}

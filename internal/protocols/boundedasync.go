package protocols

import "github.com/psharp-go/psharp"

// BoundedAsync (ported from the P benchmark suite): a scheduler machine and
// a ring of process machines that advance in rounds under a predefined
// bound. Every round, each process reports to the scheduler (baReq); once
// all have reported the scheduler broadcasts baResp, the processes advance
// their local round counters, exchange them with their neighbours, and the
// safety property is that two neighbours' counters never drift more than
// one round apart.
//
// Between broadcasting baResp and resuming counting, the scheduler performs
// a round trip with a ticker machine (modeling the timer-driven round pacing
// of the original benchmark) and sits in a transient Broadcasting state. A
// fast process can deliver its next baReq inside that window, so the
// Broadcasting state must defer baReq. The buggy variant forgets the defer —
// the paper's most common bug class ("forgetting to properly handle an
// event in some state") — and the runtime reports an unhandled event.

type baConfig struct {
	psharp.EventBase
	Scheduler psharp.MachineID
	Right     psharp.MachineID
}

type baReq struct{ psharp.EventBase }

type baResp struct{ psharp.EventBase }

type baVal struct {
	psharp.EventBase
	Round int
}

type baTick struct{ psharp.EventBase }

type baTock struct{ psharp.EventBase }

type baSchedulerSetup struct {
	psharp.EventBase
	Procs  []psharp.MachineID
	Ticker psharp.MachineID
	Rounds int
}

type baScheduler struct {
	psharp.StaticBase
	procs    []psharp.MachineID
	ticker   psharp.MachineID
	reqCount int
	round    int
	rounds   int
	buggy    bool
}

// ConfigureType declares the scheduler's schema once per registered type;
// buggy is a registration parameter the factory bakes into the probe.
func (probe *baScheduler) ConfigureType(sc *psharp.Schema) {
	sc.Start("Init").
		Defer(&baReq{}).
		OnEventDoM(&baSchedulerSetup{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			s := m.(*baScheduler)
			cfg := ev.(*baSchedulerSetup)
			s.procs = cfg.Procs
			s.ticker = cfg.Ticker
			s.rounds = cfg.Rounds
			ctx.Goto("Counting")
		})

	sc.State("Counting").
		OnEventDoM(&baReq{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			s := m.(*baScheduler)
			s.reqCount++
			ctx.Write("scheduler.reqCount")
			if s.reqCount < len(s.procs) {
				return
			}
			s.reqCount = 0
			s.round++
			if s.round > s.rounds {
				for _, p := range s.procs {
					ctx.Send(p, &psharp.HaltEvent{})
				}
				ctx.Send(s.ticker, &psharp.HaltEvent{})
				ctx.Halt()
				return
			}
			// The tick is dispatched before the responses, so the ticker's
			// round trip usually completes before any process can race a
			// new request into the Broadcasting window — the buggy missing
			// defer only bites in rare schedules (the paper reports 6%).
			ctx.Send(s.ticker, &baTick{})
			for _, p := range s.procs {
				ctx.Send(p, &baResp{})
			}
			ctx.Goto("Broadcasting")
		})

	broadcasting := sc.State("Broadcasting")
	broadcasting.OnEventGoto(&baTock{}, "Counting")
	if !probe.buggy {
		// The fix: requests that race ahead of the ticker round trip stay
		// queued until the scheduler is counting again.
		broadcasting.Defer(&baReq{})
	}
}

// baRelay is the network hop between the processes and the scheduler: it
// forwards requests unchanged.
type baRelay struct {
	psharp.StaticBase
	sched psharp.MachineID
}

func (*baRelay) ConfigureType(sc *psharp.Schema) {
	sc.Start("Forwarding").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			m.(*baRelay).sched = ev.(*baConfig).Scheduler
		}).
		OnEventDoM(&baReq{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			// Two queue passes per request: the relay models a network with
			// store-and-forward latency.
			ctx.Send(ctx.ID(), &baFwd{})
		}).
		OnEventDoM(&baFwd{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(m.(*baRelay).sched, &baReq{})
		})
}

// baFwd paces a relayed request through the relay's own queue.
type baFwd struct{ psharp.EventBase }

type baTicker struct {
	psharp.StaticBase
	sched psharp.MachineID
}

func (*baTicker) ConfigureType(sc *psharp.Schema) {
	sc.Start("Idle").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			m.(*baTicker).sched = ev.(*baConfig).Scheduler
		}).
		OnEventDoM(&baTick{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(m.(*baTicker).sched, &baTock{})
		})
}

type baProcess struct {
	psharp.StaticBase
	sched psharp.MachineID
	right psharp.MachineID
	round int
}

// Process requests travel through a relay machine (the "network" between
// the processes and the scheduler), so a request needs two hops to race
// ahead of the ticker's one-hop round trip — keeping the buggy missing
// defer a rare event, as in the paper (6% of schedules).

func (*baProcess) ConfigureType(sc *psharp.Schema) {
	sc.Start("Init").
		// A configured left neighbour may exchange values before this
		// process has seen its own configuration event.
		Defer(&baVal{}).
		OnEventDoM(&baConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*baProcess)
			cfg := ev.(*baConfig)
			p.sched = cfg.Scheduler
			p.right = cfg.Right
			ctx.Send(p.sched, &baReq{})
			ctx.Goto("Syncing")
		})
	sc.State("Syncing").
		OnEventDoM(&baResp{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*baProcess)
			p.round++
			ctx.Write("process.round")
			ctx.Send(p.right, &baVal{Round: p.round})
			ctx.Send(p.sched, &baReq{})
		}).
		OnEventDoM(&baVal{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p := m.(*baProcess)
			v := ev.(*baVal)
			ctx.Read("process.round")
			diff := v.Round - p.round
			if diff < 0 {
				diff = -diff
			}
			ctx.Assert(diff <= 1, "round drift %d between neighbours (mine %d, theirs %d)",
				diff, p.round, v.Round)
		})
}

func boundedAsyncBenchmark(buggy bool) Benchmark {
	const numProcs = 3
	const rounds = 3
	return Benchmark{
		Name:     "BoundedAsync",
		Buggy:    buggy,
		MaxSteps: 2000,
		Machines: numProcs + 2,
		Setup: func(r *psharp.Runtime) {
			r.MustRegister("BAScheduler", func() psharp.Machine { return &baScheduler{buggy: buggy} })
			r.MustRegister("BATicker", func() psharp.Machine { return &baTicker{} })
			r.MustRegister("BARelay", func() psharp.Machine { return &baRelay{} })
			r.MustRegister("BAProcess", func() psharp.Machine { return &baProcess{} })
			sched := r.MustCreate("BAScheduler", nil)
			ticker := r.MustCreate("BATicker", &baConfig{Scheduler: sched})
			relay := r.MustCreate("BARelay", &baConfig{Scheduler: sched})
			procs := make([]psharp.MachineID, numProcs)
			for i := range procs {
				procs[i] = r.MustCreate("BAProcess", nil)
			}
			for i, p := range procs {
				// Processes talk to the scheduler through the relay.
				mustSend(r, p, &baConfig{Scheduler: relay, Right: procs[(i+1)%numProcs]})
			}
			mustSend(r, sched, &baSchedulerSetup{Procs: procs, Ticker: ticker, Rounds: rounds})
		},
	}
}

// mustSend is a setup helper: environment sends cannot legitimately fail.
func mustSend(r *psharp.Runtime, target psharp.MachineID, ev psharp.Event) {
	if err := r.SendEvent(target, ev); err != nil {
		panic(err)
	}
}

package protocols

import (
	"sort"

	"github.com/psharp-go/psharp"
)

// German's cache coherence protocol (paper reference [10], ported from the
// P benchmark suite): a directory (host) machine serializes coherence
// requests from client machines. Clients ask for shared or exclusive access
// (chosen nondeterministically), use the granted copy, and explicitly
// release it; before granting exclusive access the host invalidates every
// current sharer and the owner, and waits for their acknowledgements. The
// safety property is the host-side coherence invariant: an exclusive grant
// requires no remaining sharers or owner, and a shared grant requires no
// owner.
//
// The buggy variant carries the two bugs the paper found in this benchmark
// (Section 7.2.2), both of which require genuinely concurrent holders and
// in-flight releases, so near-sequential schedules (the early DFS
// iterations) never trigger them:
//
//   - an assertion violation: when the host must invalidate three or more
//     targets at once, an off-by-one drops the last target from its
//     tracking set, so exclusive access is granted while one sharer has not
//     acknowledged;
//   - a livelock: a client whose release is still in flight can receive a
//     stale invalidation while it is already waiting for its next grant;
//     instead of acknowledging, the buggy client responds by sending a
//     retry event to itself forever ("stuck in an infinite loop
//     continuously sending an event to itself"), which also starves the
//     host of the acknowledgement it is waiting for.

type gerConfig struct {
	psharp.EventBase
	Host   psharp.MachineID
	Rounds int
}

type gerReqShared struct {
	psharp.EventBase
	Client psharp.MachineID
}

type gerReqExcl struct {
	psharp.EventBase
	Client psharp.MachineID
}

type gerGrantShared struct{ psharp.EventBase }

type gerGrantExcl struct{ psharp.EventBase }

type gerInvalidate struct{ psharp.EventBase }

type gerInvAck struct {
	psharp.EventBase
	Client psharp.MachineID
}

type gerRelease struct {
	psharp.EventBase
	Client psharp.MachineID
}

type gerNext struct{ psharp.EventBase }

// gerThink paces a client between rounds through its own queue.
type gerThink struct {
	psharp.EventBase
	Left int
}

type gerSpin struct{ psharp.EventBase }

// gerDetach is a finished client's sign-off handshake with the host.
type gerDetach struct {
	psharp.EventBase
	Client psharp.MachineID
}

type gerDetachAck struct{ psharp.EventBase }

// gerHost is the directory. The sharers map is per-instance state, so the
// factory initializes it; the off-by-one bug is a runtime branch on the
// buggy instance field, so both variants share one schema.
type gerHost struct {
	psharp.StaticBase
	sharers map[psharp.MachineID]bool
	owner   psharp.MachineID
	buggy   bool

	pendingClient psharp.MachineID
	pendingExcl   bool
	waiting       map[psharp.MachineID]bool
}

func (*gerHost) ConfigureType(sc *psharp.Schema) {
	idle := sc.Start("Idle")
	idle.OnEventDoM(&gerReqShared{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		h := m.(*gerHost)
		c := ev.(*gerReqShared).Client
		if !h.owner.IsNil() {
			ctx.Send(h.owner, &gerInvalidate{})
			h.beginInvalidation(ctx, c, false, []psharp.MachineID{h.owner})
			return
		}
		h.grantShared(ctx, c)
	})
	idle.OnEventDoM(&gerReqExcl{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		h := m.(*gerHost)
		c := ev.(*gerReqExcl).Client
		targets := h.invalidationTargets(c)
		if len(targets) == 0 {
			h.grantExclusive(ctx, c)
			return
		}
		for _, t := range targets {
			ctx.Send(t, &gerInvalidate{})
		}
		h.beginInvalidation(ctx, c, true, targets)
	})
	idle.OnEventDoM(&gerRelease{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		m.(*gerHost).release(ev.(*gerRelease).Client)
	})
	idle.OnEventDoM(&gerDetach{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		c := ev.(*gerDetach).Client
		m.(*gerHost).release(c)
		ctx.Send(c, &gerDetachAck{})
	})
	// Acknowledgements for invalidations answered by clients that had
	// already released can trickle in while the host is idle.
	idle.OnEventDoM(&gerInvAck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		m.(*gerHost).release(ev.(*gerInvAck).Client)
	})

	ackOrRelease := func(h *gerHost, ctx *psharp.Context, c psharp.MachineID) {
		h.release(c)
		if !h.waiting[c] {
			return
		}
		delete(h.waiting, c)
		ctx.Write("host.waiting")
		if len(h.waiting) > 0 {
			return
		}
		if h.pendingExcl {
			h.grantExclusive(ctx, h.pendingClient)
		} else {
			h.grantShared(ctx, h.pendingClient)
		}
		ctx.Goto("Idle")
	}

	sc.State("WaitAcks").
		Defer(&gerReqShared{}).
		Defer(&gerReqExcl{}).
		Defer(&gerDetach{}).
		OnEventDoM(&gerInvAck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ackOrRelease(m.(*gerHost), ctx, ev.(*gerInvAck).Client)
		}).
		OnEventDoM(&gerRelease{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			// A release that raced with our invalidation drops the copy,
			// but the invalidation is still in flight and its
			// acknowledgement still settles the wait — settling here would
			// let a stale acknowledgement leak into a later round.
			m.(*gerHost).release(ev.(*gerRelease).Client)
		})
}

func (h *gerHost) beginInvalidation(ctx *psharp.Context, client psharp.MachineID, excl bool, targets []psharp.MachineID) {
	h.pendingClient = client
	h.pendingExcl = excl
	h.waiting = make(map[psharp.MachineID]bool)
	tracked := targets
	if h.buggy && len(targets) > 2 {
		// Off-by-one: with three or more concurrent invalidation targets
		// the last one is dropped from the tracking set, so its
		// acknowledgement is never awaited.
		tracked = targets[:len(targets)-1]
	}
	for _, t := range tracked {
		h.waiting[t] = true
	}
	ctx.Goto("WaitAcks")
}

func (h *gerHost) invalidationTargets(requester psharp.MachineID) []psharp.MachineID {
	var out []psharp.MachineID
	if !h.owner.IsNil() && h.owner != requester {
		out = append(out, h.owner)
	}
	sharers := make([]psharp.MachineID, 0, len(h.sharers))
	for c := range h.sharers {
		if c != requester {
			sharers = append(sharers, c)
		}
	}
	sort.Slice(sharers, func(i, j int) bool { return sharers[i].Seq < sharers[j].Seq })
	h.release(requester) // an upgrade request implicitly releases
	return append(out, sharers...)
}

func (h *gerHost) release(c psharp.MachineID) {
	delete(h.sharers, c)
	if h.owner == c {
		h.owner = psharp.MachineID{}
	}
}

func (h *gerHost) grantShared(ctx *psharp.Context, c psharp.MachineID) {
	h.release(c)
	ctx.Assert(h.owner.IsNil(), "shared grant to %s while %s holds exclusive access", c, h.owner)
	h.sharers[c] = true
	ctx.Send(c, &gerGrantShared{})
}

func (h *gerHost) grantExclusive(ctx *psharp.Context, c psharp.MachineID) {
	h.release(c)
	ctx.Assert(len(h.sharers) == 0 && h.owner.IsNil(),
		"exclusive grant to %s while %d sharers remain (owner %s)", c, len(h.sharers), h.owner)
	h.owner = c
	ctx.Send(c, &gerGrantExcl{})
}

// gerClient requests access for a number of rounds and then stops.
type gerClient struct {
	psharp.StaticBase
	host     psharp.MachineID
	rounds   int
	buggy    bool
	heldExcl bool // the most recent grant was exclusive
}

func (*gerClient) ConfigureType(sc *psharp.Schema) {
	ackInvalidate := func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		ctx.Send(m.(*gerClient).host, &gerInvAck{Client: ctx.ID()})
	}
	// staleInvalidate handles an invalidation that raced with this client's
	// release: the correct client acknowledges it; the buggy one has the
	// mistake in its exclusive-copy (writer) teardown path, where it spins
	// on a self-sent retry event forever instead. The variants share one
	// schema; the mistake is a runtime branch on the buggy instance field.
	staleInvalidate := func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		c := m.(*gerClient)
		if c.buggy && c.heldExcl {
			ctx.Send(ctx.ID(), &gerSpin{})
			return
		}
		ackInvalidate(m, ctx, ev)
	}
	spin := func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		ctx.Send(ctx.ID(), &gerSpin{})
	}

	sc.Start("Boot").
		OnEventDoM(&gerConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*gerClient)
			cfg := ev.(*gerConfig)
			c.host = cfg.Host
			c.rounds = cfg.Rounds
			ctx.Goto("Deciding")
		})

	sc.State("Deciding").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*gerClient)
			if c.rounds == 0 {
				ctx.Send(c.host, &gerDetach{Client: ctx.ID()})
				ctx.Goto("Detaching")
				return
			}
			// Think for a couple of beats between rounds, so the clients'
			// requests spread out in time as real workloads do.
			ctx.Send(ctx.ID(), &gerThink{Left: 2})
		}).
		OnEventDoM(&gerThink{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*gerClient)
			t := ev.(*gerThink)
			if t.Left > 1 {
				ctx.Send(ctx.ID(), &gerThink{Left: t.Left - 1})
				return
			}
			c.rounds--
			// Exclusive access is the rarer request, as in real caches.
			if ctx.RandomInt(4) == 0 {
				ctx.Send(c.host, &gerReqExcl{Client: ctx.ID()})
				ctx.Goto("AskedExcl")
			} else {
				ctx.Send(c.host, &gerReqShared{Client: ctx.ID()})
				ctx.Goto("AskedShared")
			}
		}).
		OnEventDoM(&gerInvalidate{}, ackInvalidate).
		Ignore(&gerNext{})

	asked := func(name string, grantProto psharp.Event, target string) {
		b := sc.State(name)
		b.OnEventGoto(grantProto, target)
		b.OnEventDoM(&gerInvalidate{}, ackInvalidate)
		b.Ignore(&gerNext{})
	}
	asked("AskedShared", &gerGrantShared{}, "HaveShared")
	asked("AskedExcl", &gerGrantExcl{}, "HaveExcl")

	have := func(name, access string) {
		sc.State(name).
			OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
				m.(*gerClient).heldExcl = access == "write"
				if access == "write" {
					ctx.Write("the.cache.line")
				} else {
					ctx.Read("the.cache.line")
				}
				ctx.Send(ctx.ID(), &gerNext{}) // done using the copy
			}).
			OnEventDoM(&gerInvalidate{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
				ackInvalidate(m, ctx, ev)
				ctx.Goto("Deciding")
			}).
			OnEventDoM(&gerNext{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
				ctx.Send(m.(*gerClient).host, &gerRelease{Client: ctx.ID()})
				ctx.Goto("Deciding")
			})
	}
	have("HaveShared", "read")
	have("HaveExcl", "write")

	// While detaching, an invalidation for the copy this client just gave
	// up can still be in flight: the correct client acknowledges it (the
	// host is waiting!), the buggy one spins forever.
	sc.State("Detaching").
		OnEventGoto(&gerDetachAck{}, "Done").
		OnEventDoM(&gerInvalidate{}, staleInvalidate).
		OnEventDoM(&gerSpin{}, spin).
		Ignore(&gerNext{})

	sc.State("Done").
		Ignore(&gerNext{}).
		OnEventDoM(&gerInvalidate{}, ackInvalidate)
}

func germanBenchmark(buggy bool) Benchmark {
	const numClients = 4
	const rounds = 2
	return Benchmark{
		Name:          "German",
		Buggy:         buggy,
		MaxSteps:      3000,
		Machines:      numClients + 1,
		LivelockAsBug: buggy,
		Setup: func(r *psharp.Runtime) {
			r.MustRegister("GermanHost", func() psharp.Machine {
				return &gerHost{buggy: buggy, sharers: make(map[psharp.MachineID]bool)}
			})
			r.MustRegister("GermanClient", func() psharp.Machine { return &gerClient{buggy: buggy} })
			host := r.MustCreate("GermanHost", nil)
			for i := 0; i < numClients; i++ {
				client := r.MustCreate("GermanClient", nil)
				mustSend(r, client, &gerConfig{Host: host, Rounds: rounds})
			}
		},
	}
}

package protocols

import "github.com/psharp-go/psharp"

// Chord (paper reference [24], implemented — like the paper's version —
// from scratch using the original paper as reference): a peer-to-peer
// lookup ring over a 16-point identifier space. Nodes keep successor
// pointers; a lookup for key k is routed along the ring (chordLookup) until
// the node that precedes k hands it to its successor as a final hop
// (chordClaim); the owner replies to the client. A client machine issues a
// lookup against the stable ring, then lets a new node join between two
// existing nodes — authorized by a supervisor machine that acknowledges the
// join, as the transfer of keys would in a real deployment — and looks up
// the joiner's keys while the join is in flight.
//
// While joining, the new node is already spliced into its predecessor's
// successor pointer but is not yet serving; final-hop claims that arrive in
// that window must be deferred until the join acknowledgement. The buggy
// variant forgets the defer (the paper's common bug class): a claim routed
// into the window is an unhandled event. The window lies directly on the
// default schedule's path, which is why the paper reports this bug found on
// the very first schedule by CHESS and the P# DFS scheduler, and in about a
// third of random schedules.

type chordNodeConfig struct {
	psharp.EventBase
	ID        int
	Successor psharp.MachineID
	SuccID    int
}

// chordLookup routes a lookup along successor pointers.
type chordLookup struct {
	psharp.EventBase
	Key    int
	Client psharp.MachineID
}

// chordClaim is the final hop: the receiver is responsible for Key and
// replies to the client.
type chordClaim struct {
	psharp.EventBase
	Key    int
	Client psharp.MachineID
}

type chordResult struct {
	psharp.EventBase
	Key     int
	OwnerID int
}

type chordJoin struct {
	psharp.EventBase
	ID         int
	Pred       psharp.MachineID
	Successor  psharp.MachineID
	SuccID     int
	Supervisor psharp.MachineID
	Client     psharp.MachineID
}

// chordUpdateSucc rewires the predecessor's successor pointer to the
// joining node.
type chordUpdateSucc struct {
	psharp.EventBase
	Joiner psharp.MachineID
	SuccID int
}

type chordUpdateAck struct{ psharp.EventBase }

// chordJoinReq asks the supervisor to authorize the join (standing in for
// the key-transfer handshake of a full implementation).
type chordJoinReq struct {
	psharp.EventBase
	Joiner psharp.MachineID
}

type chordJoinAck struct{ psharp.EventBase }

// chordJoinStarted tells the client the splice is visible at the
// predecessor, so lookups will now route through the joining node.
type chordJoinStarted struct{ psharp.EventBase }

const chordSpace = 16

// inHalfOpen reports whether key lies in the ring interval (from, to].
func inHalfOpen(key, from, to int) bool {
	key, from, to = key%chordSpace, from%chordSpace, to%chordSpace
	if from < to {
		return from < key && key <= to
	}
	return key > from || key <= to
}

type chordNode struct {
	psharp.StaticBase
	id     int
	succ   psharp.MachineID
	succID int
	buggy  bool
	// pendingClient is the client to notify once the splice is visible at
	// the predecessor (set while joining).
	pendingClient psharp.MachineID
}

// ConfigureType declares the node's schema once per registered type; buggy
// is a registration parameter the factory bakes into the probe.
func (probe *chordNode) ConfigureType(sc *psharp.Schema) {
	route := func(n *chordNode, ctx *psharp.Context, l *chordLookup) {
		ctx.Read("node.successor")
		if inHalfOpen(l.Key, n.id, n.succID) {
			ctx.Send(n.succ, &chordClaim{Key: l.Key, Client: l.Client})
			return
		}
		ctx.Send(n.succ, l)
	}

	sc.Start("Boot").
		Defer(&chordLookup{}).
		Defer(&chordClaim{}).
		Defer(&chordUpdateSucc{}).
		OnEventDoM(&chordNodeConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			n := m.(*chordNode)
			cfg := ev.(*chordNodeConfig)
			n.id = cfg.ID
			n.succ = cfg.Successor
			n.succID = cfg.SuccID
			ctx.Goto("Active")
		}).
		OnEventDoM(&chordJoin{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			n := m.(*chordNode)
			j := ev.(*chordJoin)
			n.id = j.ID
			n.succ = j.Successor
			n.succID = j.SuccID
			// Splice in: the predecessor starts routing through us right
			// away, while the supervisor's acknowledgement is in flight.
			ctx.Send(j.Pred, &chordUpdateSucc{Joiner: ctx.ID(), SuccID: n.id})
			ctx.Send(j.Supervisor, &chordJoinReq{Joiner: ctx.ID()})
			n.pendingClient = j.Client
			ctx.Goto("Joining")
		})

	joining := sc.State("Joining")
	joining.OnEventGoto(&chordJoinAck{}, "Active")
	joining.OnEventDoM(&chordUpdateAck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		ctx.Send(m.(*chordNode).pendingClient, &chordJoinStarted{})
	})
	if !probe.buggy {
		// The fix: traffic routed through the half-joined node waits until
		// the join handshake completes.
		joining.Defer(&chordLookup{})
		joining.Defer(&chordClaim{})
	}

	sc.State("Active").
		OnEventDoM(&chordLookup{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			route(m.(*chordNode), ctx, ev.(*chordLookup))
		}).
		OnEventDoM(&chordClaim{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			cl := ev.(*chordClaim)
			ctx.Send(cl.Client, &chordResult{Key: cl.Key, OwnerID: m.(*chordNode).id})
		}).
		OnEventDoM(&chordUpdateSucc{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			n := m.(*chordNode)
			u := ev.(*chordUpdateSucc)
			ctx.Write("node.successor")
			n.succ = u.Joiner
			n.succID = u.SuccID
			ctx.Send(u.Joiner, &chordUpdateAck{})
		}).
		// The predecessor's acknowledgement can trail the supervisor's join
		// acknowledgement, in which case it lands after the transition.
		OnEventDoM(&chordUpdateAck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			n := m.(*chordNode)
			if !n.pendingClient.IsNil() {
				ctx.Send(n.pendingClient, &chordJoinStarted{})
				n.pendingClient = psharp.MachineID{}
			}
		})
}

// chordSupervisor authorizes joins; it is deliberately the last-created
// machine so that on the default schedule its acknowledgement trails the
// client's lookups, keeping the join window open.
type chordSupervisor struct{ psharp.StaticBase }

// chordGrant paces the supervisor's authorization through its own queue,
// widening the join window the way the key transfer of a real deployment
// would.
type chordGrant struct {
	psharp.EventBase
	Joiner psharp.MachineID
}

func (*chordSupervisor) ConfigureType(sc *psharp.Schema) {
	sc.Start("Ready").
		OnEventDoM(&chordJoinReq{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(ctx.ID(), &chordGrant{Joiner: ev.(*chordJoinReq).Joiner})
		}).
		OnEventDoM(&chordGrant{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(ev.(*chordGrant).Joiner, &chordJoinAck{})
		})
}

type chordClient struct {
	psharp.StaticBase
	nodes   []psharp.MachineID
	nodeIDs []int
	joiner  psharp.MachineID
	joinID  int
	super   psharp.MachineID
	lookups int
	oldOwn  int
}

type chordClientConfig struct {
	psharp.EventBase
	Nodes      []psharp.MachineID
	NodeIDs    []int
	Joiner     psharp.MachineID
	JoinID     int
	Supervisor psharp.MachineID
}

func (*chordClient) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		OnEventDoM(&chordClientConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*chordClient)
			cfg := ev.(*chordClientConfig)
			c.nodes = cfg.Nodes
			c.nodeIDs = cfg.NodeIDs
			c.joiner = cfg.Joiner
			c.joinID = cfg.JoinID
			c.super = cfg.Supervisor
			c.oldOwn = successorOf(c.joinID, c.nodeIDs)
			// Lookup against the stable ring.
			ctx.Send(c.nodes[0], &chordLookup{Key: c.joinID + 1, Client: ctx.ID()})
			ctx.Goto("FirstLookup")
		})

	sc.State("FirstLookup").
		OnEventDoM(&chordResult{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*chordClient)
			res := ev.(*chordResult)
			want := successorOf(res.Key, c.nodeIDs)
			ctx.Assert(res.OwnerID == want,
				"stable ring: lookup(%d) answered %d, want %d", res.Key, res.OwnerID, want)
			ctx.Send(c.joiner, &chordJoin{
				ID:         c.joinID,
				Pred:       c.nodes[0],
				Successor:  c.nodes[1],
				SuccID:     c.nodeIDs[1],
				Supervisor: c.super,
				Client:     ctx.ID(),
			})
			ctx.Goto("WaitJoin")
		})

	sc.State("WaitJoin").
		OnEventDoM(&chordJoinStarted{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*chordClient)
			c.lookups = 2
			for i := 0; i < c.lookups; i++ {
				ctx.Send(c.nodes[0], &chordLookup{Key: c.joinID, Client: ctx.ID()})
			}
			ctx.Goto("JoinLookup")
		})

	sc.State("JoinLookup").
		OnEventDoM(&chordResult{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*chordClient)
			res := ev.(*chordResult)
			// During a join, a lookup may legitimately be answered by the
			// old owner (the splice is not atomic across the ring); what
			// must never happen is a lost or mis-routed lookup.
			ctx.Assert(res.OwnerID == c.joinID || res.OwnerID == c.oldOwn,
				"after join: lookup(%d) answered %d, want %d or %d",
				res.Key, res.OwnerID, c.joinID, c.oldOwn)
			c.lookups--
			if c.lookups == 0 {
				ctx.Halt()
			}
		})
}

// successorOf returns the id of the node owning key: the first node
// clockwise from key (inclusive).
func successorOf(key int, ids []int) int {
	best, bestDist := ids[0], chordSpace+1
	for _, id := range ids {
		dist := (id - key + chordSpace) % chordSpace
		if dist < bestDist {
			best, bestDist = id, dist
		}
	}
	return best
}

func chordBenchmark(buggy bool) Benchmark {
	ids := []int{2, 7, 12}
	const joinID = 5
	return Benchmark{
		Name:     "Chord",
		Buggy:    buggy,
		MaxSteps: 2000,
		Machines: len(ids) + 3,
		Setup: func(r *psharp.Runtime) {
			r.MustRegister("ChordNode", func() psharp.Machine { return &chordNode{buggy: buggy} })
			r.MustRegister("ChordClient", func() psharp.Machine { return &chordClient{} })
			r.MustRegister("ChordSupervisor", func() psharp.Machine { return &chordSupervisor{} })
			nodes := make([]psharp.MachineID, len(ids))
			for i := range ids {
				nodes[i] = r.MustCreate("ChordNode", nil)
			}
			for i, id := range ids {
				mustSend(r, nodes[i], &chordNodeConfig{
					ID:        id,
					Successor: nodes[(i+1)%len(nodes)],
					SuccID:    ids[(i+1)%len(ids)],
				})
			}
			joiner := r.MustCreate("ChordNode", nil)
			client := r.MustCreate("ChordClient", nil)
			super := r.MustCreate("ChordSupervisor", nil)
			mustSend(r, client, &chordClientConfig{
				Nodes: nodes, NodeIDs: ids, Joiner: joiner, JoinID: joinID, Supervisor: super,
			})
		},
	}
}

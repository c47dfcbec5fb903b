package protocols

import "github.com/psharp-go/psharp"

// Chain replication (paper reference [26], ported from the P benchmark
// suite): a head → middle → tail chain of replica machines. A client pumps
// a stream of sequenced updates into the head; each replica applies an
// update and forwards it down the chain; the tail acknowledges to the head
// (which trims its unacknowledged-update list) and to the client. A
// failure-detector machine — the nondeterministic environment — kills the
// middle replica at a random point; a master machine then reconfigures the
// chain so the head forwards directly to the tail.
//
// The fault-tolerance obligation of chain replication (van Renesse &
// Schneider's Update Propagation Invariant) is that on reconfiguration the
// new predecessor re-sends its unacknowledged updates to its new successor;
// updates that died with the middle replica (in its queue, or sent to it
// after the crash) are thereby recovered. Two safety checks watch over
// this: the tail asserts it never observes a sequence gap, and after the
// reconfiguration the master audits the chain — it asks the head, which
// forwards the audit down its (new) successor path behind any re-sent
// updates, and the tail asserts it has seen everything the head accepted.
// The buggy variant forgets the re-send, so every schedule in which any
// update was in the doomed window fails the audit (or gaps). The crash is
// triggered by the tail's progress report plus a couple of coin flips, so —
// like the paper's version, whose bug "requires only one of several random
// binary choices" — essentially every random schedule is buggy and the
// default first schedule already fails under DFS and CHESS-like search.

type crServerConfig struct {
	psharp.EventBase
	Succ     psharp.MachineID // zero for the tail
	Head     psharp.MachineID
	Client   psharp.MachineID
	Detector psharp.MachineID
}

type crClientConfig struct {
	psharp.EventBase
	Head   psharp.MachineID
	Writes int
}

type crMasterConfig struct {
	psharp.EventBase
	Head psharp.MachineID
	Tail psharp.MachineID
}

type crDetectorConfig struct {
	psharp.EventBase
	Mid    psharp.MachineID
	Master psharp.MachineID
}

type crWrite struct {
	psharp.EventBase
	Seq int
	Val int
}

type crUpdate struct {
	psharp.EventBase
	Seq int
	Val int
}

type crAck struct {
	psharp.EventBase
	Seq int
}

type crFail struct{ psharp.EventBase }

type crMidFailed struct{ psharp.EventBase }

type crNewConfig struct {
	psharp.EventBase
	Succ psharp.MachineID
}

type crPump struct{ psharp.EventBase }

// crObserved is the tail's progress report to the failure detector.
type crObserved struct {
	psharp.EventBase
	Seq int
}

// crAudit asks the head to verify the chain end to end.
type crAudit struct{ psharp.EventBase }

// crAuditChk travels down the head's successor path, behind any re-sent
// updates, and carries the highest sequence number the head accepted.
type crAuditChk struct {
	psharp.EventBase
	Expect int
}

// crHead is the chain's head replica. The seeded bug is a runtime branch on
// the buggy instance field, so both variants share one schema.
type crHead struct {
	psharp.StaticBase
	succ    psharp.MachineID
	buggy   bool
	lastSeq int
	unacked []crUpdate
}

func (*crHead) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&crWrite{}).
		OnEventDoM(&crServerConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			m.(*crHead).succ = ev.(*crServerConfig).Succ
			ctx.Goto("Serving")
		})
	sc.State("Serving").
		OnEventDoM(&crWrite{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			h := m.(*crHead)
			w := ev.(*crWrite)
			u := crUpdate{Seq: w.Seq, Val: w.Val}
			h.unacked = append(h.unacked, u)
			h.lastSeq = w.Seq
			ctx.Write("head.history")
			ctx.Send(h.succ, &crUpdate{Seq: u.Seq, Val: u.Val})
		}).
		OnEventDoM(&crAudit{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			h := m.(*crHead)
			// The check rides the same successor path as the updates, so it
			// arrives at the tail behind everything the head forwarded.
			ctx.Send(h.succ, &crAuditChk{Expect: h.lastSeq})
		}).
		OnEventDoM(&crAck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			h := m.(*crHead)
			seq := ev.(*crAck).Seq
			for i, u := range h.unacked {
				if u.Seq == seq {
					h.unacked = append(h.unacked[:i], h.unacked[i+1:]...)
					break
				}
			}
		}).
		OnEventDoM(&crNewConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			h := m.(*crHead)
			h.succ = ev.(*crNewConfig).Succ
			if h.buggy {
				// The seeded bug: the Update Propagation Invariant is not
				// restored — updates that died with the middle replica are
				// never re-sent.
				return
			}
			for _, u := range h.unacked {
				ctx.Send(h.succ, &crUpdate{Seq: u.Seq, Val: u.Val})
			}
		})
}

// crMid is the middle replica; it can be crashed by the failure detector.
type crMid struct {
	psharp.StaticBase
	succ     psharp.MachineID
	detector psharp.MachineID
}

func (*crMid) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&crUpdate{}).
		Defer(&crFail{}).
		OnEventDoM(&crServerConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			md := m.(*crMid)
			cfg := ev.(*crServerConfig)
			md.succ = cfg.Succ
			md.detector = cfg.Detector
			ctx.Goto("Serving")
		})
	sc.State("Serving").
		OnEventDoM(&crUpdate{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			md := m.(*crMid)
			u := ev.(*crUpdate)
			ctx.Write("mid.history")
			ctx.Send(md.succ, &crUpdate{Seq: u.Seq, Val: u.Val})
			if u.Seq >= 2 && !md.detector.IsNil() {
				// The failure detector watches this replica's own traffic,
				// so the crash always lands while the replica is active.
				ctx.Send(md.detector, &crObserved{Seq: u.Seq})
			}
		}).
		OnEventDoM(&crFail{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			// Crash: queued updates die with the replica; later sends to it
			// are dropped by the runtime.
			ctx.Halt()
		})
}

// crTail asserts the gap-free delivery invariant and the end-to-end audit,
// and acknowledges applied updates.
type crTail struct {
	psharp.StaticBase
	head     psharp.MachineID
	client   psharp.MachineID
	detector psharp.MachineID
	last     int
}

func (*crTail) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&crUpdate{}).
		Defer(&crAuditChk{}).
		OnEventDoM(&crServerConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			t := m.(*crTail)
			cfg := ev.(*crServerConfig)
			t.head = cfg.Head
			t.client = cfg.Client
			t.detector = cfg.Detector
			ctx.Goto("Serving")
		})
	sc.State("Serving").
		OnEventDoM(&crUpdate{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			t := m.(*crTail)
			u := ev.(*crUpdate)
			ctx.Assert(u.Seq <= t.last+1,
				"update propagation invariant violated: tail received seq %d after %d (gap of %d lost updates)",
				u.Seq, t.last, u.Seq-t.last-1)
			if u.Seq <= t.last {
				return // duplicate from re-propagation; drop
			}
			t.last = u.Seq
			ctx.Write("tail.history")
			ctx.Send(t.head, &crAck{Seq: u.Seq})
			ctx.Send(t.client, &crAck{Seq: u.Seq})
		}).
		OnEventDoM(&crAuditChk{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			t := m.(*crTail)
			chk := ev.(*crAuditChk)
			ctx.Assert(t.last == chk.Expect,
				"audit failed: head accepted up to seq %d but the tail only holds up to %d (%d updates lost)",
				chk.Expect, t.last, chk.Expect-t.last)
		})
}

// crClient pumps a fixed number of sequenced writes on a self-paced loop.
type crClient struct {
	psharp.StaticBase
	head   psharp.MachineID
	writes int
	seq    int
}

func (*crClient) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		OnEventDoM(&crClientConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*crClient)
			cfg := ev.(*crClientConfig)
			c.head = cfg.Head
			c.writes = cfg.Writes
			ctx.Send(ctx.ID(), &crPump{})
			ctx.Goto("Pumping")
		})
	sc.State("Pumping").
		OnEventDoM(&crPump{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*crClient)
			// Writes go out in bursts of two, as a batching client would
			// send them, so the chain almost always has updates in flight.
			for i := 0; i < 2 && c.seq < c.writes; i++ {
				c.seq++
				ctx.Send(c.head, &crWrite{Seq: c.seq, Val: 100 + c.seq})
			}
			if c.seq < c.writes {
				ctx.Send(ctx.ID(), &crPump{})
			}
		}).
		Ignore(&crAck{})
}

// crMaster reconfigures the chain when the middle replica fails.
type crMaster struct {
	psharp.StaticBase
	head psharp.MachineID
	tail psharp.MachineID
}

func (*crMaster) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&crMidFailed{}).
		OnEventDoM(&crMasterConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ms := m.(*crMaster)
			cfg := ev.(*crMasterConfig)
			ms.head = cfg.Head
			ms.tail = cfg.Tail
			ctx.Goto("Watching")
		})
	sc.State("Watching").
		OnEventDoM(&crMidFailed{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ms := m.(*crMaster)
			ctx.Send(ms.head, &crNewConfig{Succ: ms.tail})
			ctx.Send(ms.head, &crAudit{})
		})
}

// crDetector kills the middle replica once the tail has made some progress,
// with a couple of coin flips deciding exactly when (the "several random
// binary choices" of the paper's description).
type crDetector struct {
	psharp.StaticBase
	mid    psharp.MachineID
	master psharp.MachineID
}

func (*crDetector) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Defer(&crObserved{}).
		OnEventDoM(&crDetectorConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			d := m.(*crDetector)
			cfg := ev.(*crDetectorConfig)
			d.mid = cfg.Mid
			d.master = cfg.Master
			ctx.Goto("Waiting")
		})
	sc.State("Waiting").
		OnEventDoM(&crObserved{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			d := m.(*crDetector)
			seq := ev.(*crObserved).Seq
			if seq < 2 {
				return
			}
			if seq >= 3 || ctx.RandomBool() {
				ctx.Send(d.mid, &crFail{})
				ctx.Send(d.master, &crMidFailed{})
				ctx.Halt()
			}
		})
}

func chainReplicationBenchmark(buggy bool) Benchmark {
	const writes = 12
	return Benchmark{
		Name:     "ChainReplication",
		Buggy:    buggy,
		MaxSteps: 3000,
		Machines: 6,
		Setup: func(r *psharp.Runtime) {
			r.MustRegister("CRHead", func() psharp.Machine { return &crHead{buggy: buggy} })
			r.MustRegister("CRMid", func() psharp.Machine { return &crMid{} })
			r.MustRegister("CRTail", func() psharp.Machine { return &crTail{} })
			r.MustRegister("CRClient", func() psharp.Machine { return &crClient{} })
			r.MustRegister("CRMaster", func() psharp.Machine { return &crMaster{} })
			r.MustRegister("CRDetector", func() psharp.Machine { return &crDetector{} })
			// Creation order matters for the default schedule: the detector
			// precedes the client so the tail's progress report reaches it
			// promptly, while the master trails the client so the
			// reconfiguration races the client's remaining writes.
			head := r.MustCreate("CRHead", nil)
			mid := r.MustCreate("CRMid", nil)
			tail := r.MustCreate("CRTail", nil)
			detector := r.MustCreate("CRDetector", nil)
			client := r.MustCreate("CRClient", nil)
			master := r.MustCreate("CRMaster", nil)
			mustSend(r, head, &crServerConfig{Succ: mid})
			mustSend(r, mid, &crServerConfig{Succ: tail, Detector: detector})
			mustSend(r, tail, &crServerConfig{Head: head, Client: client})
			mustSend(r, detector, &crDetectorConfig{Mid: mid, Master: master})
			mustSend(r, client, &crClientConfig{Head: head, Writes: writes})
			mustSend(r, master, &crMasterConfig{Head: head, Tail: tail})
		},
	}
}

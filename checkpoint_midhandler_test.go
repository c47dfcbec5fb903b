package psharp_test

// Corners of the checkpoints a machine parked mid-handler is rebuilt into
// (checkpoint.go): a restore re-runs the handler chain the machine was in
// — sends, creates, draws, a Goto into an entry action that sends, a Raise —
// up to the yield point it was parked at. Every attempt that restored
// anything must replay from setup to the trace it reported, and every search
// must be attempt for attempt the search that forgets its checkpoints. The
// names start with TestCheckpoint so CI's "DPOR + state cache suite" step
// runs them under the race detector.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

type mhPing struct {
	psharp.EventBase
	From  psharp.MachineID
	N     int
	Trail []int
}

type mhLocal struct {
	psharp.EventBase
	N int
}

type mhKid struct {
	psharp.EventBase
	Peer  psharp.MachineID
	Round int
}

type mhDone struct{ psharp.EventBase }

// mhHub answers rounds of Peer's replies with one handler chain each that
// draws an int and a bool, sends, creates a Kid, and — but for the last —
// goes to Relay, whose entry action sends and raises; the raised event's
// handler sends to the Kid (halted by then, or not) and goes back to
// waiting.
type mhHub struct {
	psharp.StaticBase
	rounds int
	peer   psharp.MachineID
	kids   []psharp.MachineID
	trail  []int
}

func (*mhHub) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		h := m.(*mhHub)
		h.peer = ctx.CreateMachine("Peer", nil)
		ctx.Send(h.peer, &mhPing{From: ctx.ID(), N: 1})
		ctx.Goto("Wait")
	})
	sc.State("Wait").OnEventDoM(&mhPing{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		h := m.(*mhHub)
		if len(h.kids) == h.rounds {
			return
		}
		n := ctx.RandomInt(3)
		if ctx.RandomBool() {
			h.trail = append(h.trail, n)
		}
		ctx.Send(h.peer, &mhPing{From: ctx.ID(), N: n, Trail: append([]int(nil), h.trail...)})
		h.kids = append(h.kids, ctx.CreateMachine("Kid", &mhKid{Peer: h.peer, Round: n}))
		if len(h.kids) < h.rounds {
			ctx.Goto("Relay")
		}
	})
	sc.State("Relay").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			h := m.(*mhHub)
			ctx.Send(h.peer, &mhPing{From: ctx.ID(), N: -1})
			ctx.Raise(&mhLocal{N: len(h.trail)})
		}).
		OnEventDoM(&mhLocal{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			h := m.(*mhHub)
			ctx.Send(h.kids[len(h.kids)-1], &mhLocal{N: ev.(*mhLocal).N})
			ctx.Goto("Wait")
		}).
		Defer(&mhPing{})
}

// mhPeer replies to every numbered ping and counts what else it hears.
type mhPeer struct {
	psharp.StaticBase
	heard, sum int
}

func (*mhPeer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Serve").
		OnEventDoM(&mhPing{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			p, ping := m.(*mhPeer), ev.(*mhPing)
			p.heard++
			if ping.N < 0 {
				return
			}
			p.sum += ping.N + len(ping.Trail)
			ctx.Send(ping.From, &mhPing{From: ctx.ID()})
		}).
		OnEventDoM(&mhDone{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { m.(*mhPeer).heard++ })
}

// mhKidM does all its work in the entry action of its birth — two sends, a
// coin between them — and halts; a Kid that is told anything later drops it
// halted, or handles it if it has not run yet.
type mhKidM struct {
	psharp.StaticBase
	round int
}

func (*mhKidM) ConfigureType(sc *psharp.Schema) {
	sc.Start("Live").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			k, birth := m.(*mhKidM), ev.(*mhKid)
			k.round = birth.Round
			ctx.Send(birth.Peer, &mhDone{})
			if ctx.RandomBool() {
				k.round++
				ctx.Send(birth.Peer, &mhDone{})
			}
			ctx.Halt()
		})
}

// mhWatch is a monitor that counts the numbered pings and the raised events
// it observes and holds them to what the program can send: a notification
// made again as a restored machine catches up would be counted twice — in
// the state hash, and against the bound.
type mhWatch struct {
	psharp.StaticBase
	rounds, pings, locals int
}

func (*mhWatch) ConfigureType(sc *psharp.Schema) {
	sc.Start("Watch").
		OnEventDoM(&mhPing{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			w := m.(*mhWatch)
			if ev.(*mhPing).N >= 0 {
				w.pings++
			}
			ctx.Assert(w.pings <= 2*w.rounds+2, "%d numbered pings in %d rounds", w.pings, w.rounds)
		}).
		OnEventDoM(&mhLocal{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			w := m.(*mhWatch)
			w.locals++
			ctx.Assert(w.locals < w.rounds, "%d raises in %d rounds", w.locals, w.rounds)
		})
}

func midHandlerSetup(rounds int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegisterMonitor("Watch", func() psharp.Machine { return &mhWatch{rounds: rounds} })
		r.MustRegister("Hub", func() psharp.Machine { return &mhHub{rounds: rounds} })
		r.MustRegister("Peer", func() psharp.Machine { return &mhPeer{} })
		r.MustRegister("Kid", func() psharp.Machine { return &mhKidM{} })
		r.MustCreate("Hub", nil)
	}
}

// heldShapes sums up what the snapshots a search held looked like.
type heldShapes struct {
	restored, mostParked, booting, dequeueing, halted int
}

// midHandlerSearch makes up to attempts attempts of a fresh strategy on the
// program setup builds, through one harness — as shipped, or with its
// checkpoints forgotten before each — and checks every attempt that restored
// anything, and was not pruned, against a replay from setup.
func midHandlerSearch(t *testing.T, setup func(*psharp.Runtime), cfg psharp.TestConfig, attempts int, forget bool) ([]attempt, heldShapes) {
	t.Helper()
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	s := cfg.Strategy.(sct.Strategy)
	var log []attempt
	var held heldShapes
	for i := 0; i < attempts && s.PrepareIteration(i); i++ {
		if forget {
			h.ForgetCheckpoints()
		}
		res := h.Run(cfg)
		if res.Err != nil {
			t.Fatalf("attempt %d: %v", i, res.Err)
		}
		a := attempt{pruned: res.Pruned, points: res.SchedulingPoints, replayed: res.ReplayedPoints,
			continued: res.ContinuedPoints, trace: encodeTrace(t, res.Trace)}
		if res.Bug != nil {
			a.bug = res.Bug.Error()
		}
		log = append(log, a)
		if res.RestoredPoints > 0 {
			held.restored++
			if !res.Pruned { // a pruned trace ends where the cache cut it
				replaysFromSetup(t, fmt.Sprint("attempt ", i), setup, res, cfg)
			}
		}
		for _, sh := range h.CheckpointShapes() {
			held.mostParked = max(held.mostParked, sh.Parked)
			held.booting += sh.Booting
			held.dequeueing += sh.Dequeueing
			held.halted += sh.Halted
		}
	}
	return log, held
}

// checkMidHandler runs the search both ways under each strategy the
// configuration is tried with and wants one search; it returns what the
// snapshots of the runs as shipped looked like.
func checkMidHandler(t *testing.T, setup func(*psharp.Runtime), base psharp.TestConfig, attempts int) heldShapes {
	t.Helper()
	var all heldShapes
	for _, tc := range []struct {
		name   string
		fresh  func() sct.Strategy
		cached bool
	}{
		{"dfs", func() sct.Strategy { return sct.NewDFS() }, false},
		{"dpor+cache", func() sct.Strategy { return sct.NewDPOR() }, true},
	} {
		run := func(forget bool) ([]attempt, *ownerCache, heldShapes) {
			cfg := base
			cfg.Strategy = tc.fresh()
			var cache *ownerCache
			if tc.cached {
				cache = newOwnerCache()
				cfg.StateCache = cache
			}
			log, held := midHandlerSearch(t, setup, cfg, attempts, forget)
			return log, cache, held
		}
		live, liveCache, held := run(false)
		plain, plainCache, _ := run(true)
		sameAttempts(t, tc.name+", checkpoints on/off", live, plain, liveCache, plainCache)
		if held.restored == 0 {
			t.Fatalf("%s: no attempt started from a checkpoint", tc.name)
		}
		all.restored += held.restored
		all.mostParked = max(all.mostParked, held.mostParked)
		all.booting += held.booting
		all.dequeueing += held.dequeueing
		all.halted += held.halted
	}
	return all
}

// TestCheckpointMidHandlerChains: snapshots taken with two and more machines
// parked, one of them in the entry action of its birth, and with halted ones
// among them, restore into the search that never took them.
func TestCheckpointMidHandlerChains(t *testing.T) {
	held := checkMidHandler(t, midHandlerSetup(3), psharp.TestConfig{MaxSteps: 500}, 1500)
	if held.mostParked < 2 || held.booting == 0 || held.halted == 0 {
		t.Fatalf("the held snapshots never had two machines parked, one at its birth, and a halted one: %+v", held)
	}
}

// TestCheckpointMidHandlerChessLike: under CHESS granularity a machine also
// yields at the queue lock of every send and at every dequeue, between two
// handlers; a snapshot holds those too.
func TestCheckpointMidHandlerChessLike(t *testing.T) {
	held := checkMidHandler(t, midHandlerSetup(2), psharp.TestConfig{MaxSteps: 500, ChessLike: true}, 1500)
	if held.mostParked < 2 || held.dequeueing == 0 {
		t.Fatalf("the held snapshots never had two machines parked, one at a dequeue: %+v", held)
	}
}

// The sharing program: two machines hold one tally, which each of their
// handlers bumps between two sends. A handler start copied apart from the
// snapshot would give the rebuilt machine a tally of its own.

type shTally struct{ n int }

type shBall struct {
	psharp.EventBase
	To    psharp.MachineID
	Tally *shTally
	Hops  int
}

type shPlayer struct {
	psharp.StaticBase
	tally *shTally
	other psharp.MachineID
}

func (*shPlayer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Play").OnEventDoM(&shBall{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		p, b := m.(*shPlayer), ev.(*shBall)
		if p.tally == nil {
			p.tally, p.other = b.Tally, b.To
		}
		if b.Hops == 0 {
			return
		}
		ctx.Send(p.other, &shBall{Hops: b.Hops - 1})
		p.tally.n++
		ctx.Send(p.other, &shBall{})
	})
}

func sharingSetup(r *psharp.Runtime) {
	r.MustRegister("Player", func() psharp.Machine { return &shPlayer{} })
	a, b := r.MustCreate("Player", nil), r.MustCreate("Player", nil)
	tally := &shTally{}
	for _, e := range []struct{ to, other psharp.MachineID }{{a, b}, {b, a}} {
		if err := r.SendEvent(e.to, &shBall{To: e.other, Tally: tally, Hops: 3}); err != nil {
			panic(err)
		}
	}
}

// TestCheckpointMidHandlerFallback: the players share a tally, so neither
// can be rebuilt mid-handler. The harness finds that out once, then snapshots
// only where neither is parked — quiescent points, the players being all
// there is — and the search is still the search that forgets its checkpoints.
func TestCheckpointMidHandlerFallback(t *testing.T) {
	for _, cached := range []bool{false, true} {
		run := func(forget bool) ([]attempt, *ownerCache, int) {
			var s sct.Strategy = sct.NewDFS()
			cfg := psharp.TestConfig{MaxSteps: 500}
			var cache *ownerCache
			if cached {
				s, cache = sct.NewDPOR(), newOwnerCache()
				cfg.StateCache = cache
			}
			cfg.Strategy = s
			h := psharp.NewTestHarness(sharingSetup)
			defer h.Close()
			var log []attempt
			restored, parkedAfterStuck := 0, 0
			for i := 0; i < 1000 && s.PrepareIteration(i); i++ {
				if forget {
					h.ForgetCheckpoints()
				}
				stuck := h.CheckpointsStuck()
				res := h.Run(cfg)
				a := attempt{pruned: res.Pruned, points: res.SchedulingPoints, replayed: res.ReplayedPoints,
					continued: res.ContinuedPoints, trace: encodeTrace(t, res.Trace)}
				if res.Bug != nil {
					a.bug = res.Bug.Error()
				}
				log = append(log, a)
				if res.RestoredPoints > 0 {
					restored++
					if !res.Pruned {
						replaysFromSetup(t, fmt.Sprint("attempt ", i), sharingSetup, res, cfg)
					}
				}
				if stuck == 2 {
					// Taken after both players were found stuck: quiescent.
					if shapes := h.CheckpointShapes(); len(shapes) > 0 && shapes[len(shapes)-1].Parked > 0 {
						parkedAfterStuck++
					}
				}
			}
			if !forget && (h.CheckpointsStuck() != 2 || restored == 0 || parkedAfterStuck > 0) {
				t.Fatalf("cache %v: %d players stuck, %d attempts restored, %d snapshots with a player parked after both were stuck",
					cached, h.CheckpointsStuck(), restored, parkedAfterStuck)
			}
			return log, cache, restored
		}
		live, liveCache, _ := run(false)
		plain, plainCache, _ := run(true)
		sameAttempts(t, fmt.Sprintf("sharing program, cache %v, checkpoints on/off", cached), live, plain, liveCache, plainCache)
	}
}

// firstChoice is a depth-first-like strategy with one schedule: the first
// enabled machine, false, 0, every time. It says it repeats all of the
// iteration before but its last again decisions, which it makes again.
type firstChoice struct{ again int }

func (firstChoice) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	return enabled[0]
}
func (firstChoice) NextBool() bool  { return false }
func (firstChoice) NextInt(int) int { return 0 }
func (f firstChoice) RepeatedPrefix(prev []psharp.Decision) int {
	return max(len(prev)-f.again, 0)
}
func (firstChoice) ResumeAt(int) {}

// drawsLikeThis and sendsFirst are read by ndTicker's handler: package
// variables another machine — here the test — writes, which a handler must
// not read.
var (
	drawsLikeThis = "bool"
	sendsFirst    = false
)

type ndTick struct{ psharp.EventBase }

// ndTicker draws a value and sends itself a tick, forever.
type ndTicker struct{ psharp.StaticBase }

func (*ndTicker) ConfigureType(sc *psharp.Schema) {
	sc.Start("Tick").
		OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Send(ctx.ID(), &ndTick{}) }).
		OnEventDoM(&ndTick{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			if sendsFirst {
				ctx.Send(ctx.ID(), &ndTick{})
			}
			if drawsLikeThis == "bool" {
				ctx.RandomBool()
			} else {
				ctx.RandomInt(2)
			}
			ctx.Send(ctx.ID(), &ndTick{})
		})
}

// TestCheckpointMidHandlerNondeterminismFails: a handler that is not a
// function of its machine's state, its event and its choices cannot be
// rebuilt. A restored ticker parked in a handler that now draws an int where
// it drew a bool, or sends once more before its draw, fails the iteration
// with a BugPanic that says so, instead of running on from a state no
// schedule reaches (with the extra send, it would park one yield point
// early if only yield points were counted). That holds where the ticker,
// the one machine, is rebuilt: the strategy makes the last decision again,
// and the ticker, chosen there, changed past every snapshot. Where the
// strategy repeats all of the attempt before, the ticker did not change past
// the snapshot's position: a restore keeps it as it is, parked mid-handler,
// and re-runs nothing of its handler, so the change goes undetected and the
// attempt runs on to the bound (checkpoint.go).
func TestCheckpointMidHandlerNondeterminismFails(t *testing.T) {
	defer func() { drawsLikeThis, sendsFirst = "bool", false }()
	for _, tc := range []struct {
		name   string
		change func()
		again  int // decisions the strategy makes again: 0 keeps the ticker
	}{
		{"draws an int", func() { drawsLikeThis = "int" }, 1},
		{"sends first", func() { sendsFirst = true }, 1},
		{"draws an int, kept", func() { drawsLikeThis = "int" }, 0},
		{"sends first, kept", func() { sendsFirst = true }, 0},
	} {
		drawsLikeThis, sendsFirst = "bool", false
		h := psharp.NewTestHarness(func(r *psharp.Runtime) {
			r.MustRegister("Ticker", func() psharp.Machine { return &ndTicker{} })
			r.MustCreate("Ticker", nil)
		})
		cfg := psharp.TestConfig{Strategy: firstChoice{again: tc.again}, MaxSteps: 20}
		restored := false
		for i := 0; i < 10 && !restored; i++ {
			res := h.Run(cfg)
			if res.Bug != nil {
				t.Fatalf("%s: attempt %d: %v", tc.name, i, res.Bug)
			}
			restored = res.RestoredPoints > 0
		}
		if shapes := h.CheckpointShapes(); !restored || len(shapes) == 0 || shapes[len(shapes)-1].Parked == 0 {
			t.Fatalf("%s: no attempt restored a snapshot with the ticker parked: restored %v, held %+v", tc.name, restored, shapes)
		}
		tc.change()
		before, _, _ := h.Kept()
		res := h.Run(cfg)
		kept, _, _ := h.Kept()
		h.Close()
		if tc.again == 0 {
			if kept != before+1 || res.RestoredPoints == 0 || res.Bug != nil || res.SchedulingPoints != cfg.MaxSteps {
				t.Fatalf("%s: the restore kept %d machines, restored %d points, and the attempt reported %v after %d points; want the ticker kept and %d points without a bug",
					tc.name, kept-before, res.RestoredPoints, res.Bug, res.SchedulingPoints, cfg.MaxSteps)
			}
			continue
		}
		if kept != before {
			t.Fatalf("%s: the restore kept the ticker", tc.name)
		}
		if res.Bug == nil || res.Bug.Kind != psharp.BugPanic || !strings.Contains(res.Bug.Message, "took another path") ||
			!strings.Contains(res.Bug.Message, "not a deterministic function") {
			t.Fatalf("%s: the rebuilt ticker took another path and the attempt reported %v (%d points restored)",
				tc.name, res.Bug, res.RestoredPoints)
		}
	}
}

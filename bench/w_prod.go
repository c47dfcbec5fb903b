package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/psharp-go/psharp"
)

// prod_runtime: production mode, the other user of machine.go and
// runtime.go. Phase ring passes one token round four machines, one message
// in flight at a time, so it is bound by the latency of a handoff; phase
// fanin has three senders fill one mailbox, each up to a window of
// unacknowledged messages, so it is bound by contention on that mailbox. An operation is a delivered message; the sink of each phase checks
// a seed-derived checksum over what it received. GOMAXPROCS is left at the
// number of CPUs.
const (
	ringMachines  = 4
	ringHops      = 400000
	faninSenders  = 3
	faninMessages = 150000 // per sender
	faninWindow   = 64     // unacknowledged messages a sender may have queued
)

type prodRuntime struct {
	seed  uint64
	scale int
}

func setupProdRuntime(seed uint64, scale int) (instance, error) {
	w := &prodRuntime{seed: seed, scale: scale}
	// Warm-up: a fifth of a round.
	if _, err := w.ring(scaled(ringHops, 5*scale, 8)); err != nil {
		return nil, err
	}
	if _, err := w.fanin(scaled(faninMessages, 5*scale, 8)); err != nil {
		return nil, err
	}
	return w, nil
}

type hop struct {
	psharp.EventBase
	Left int
	Sum  uint64
}

type wire struct {
	psharp.EventBase
	Next psharp.MachineID
}

// ring relays one token for hops hops; every hop folds a seed-derived value
// into the token's checksum.
func (w *prodRuntime) ring(hops int) (time.Duration, error) {
	var delivered int
	var sum uint64
	step := w.seed | 1
	rt := psharp.NewRuntime()
	rt.MustRegister("Relay", func() psharp.Machine {
		var next psharp.MachineID
		return psharp.MachineFunc(func(sc *psharp.Schema) {
			sc.Start("Run").
				OnEventDo(&wire{}, func(_ *psharp.Context, ev psharp.Event) { next = ev.(*wire).Next }).
				OnEventDo(&hop{}, func(ctx *psharp.Context, ev psharp.Event) {
					t := ev.(*hop)
					if t.Left == 0 {
						delivered, sum = hops, t.Sum
						return
					}
					ctx.Send(next, &hop{Left: t.Left - 1, Sum: t.Sum*31 + step})
				})
		})
	})
	ids := make([]psharp.MachineID, ringMachines)
	for i := range ids {
		ids[i] = rt.MustCreate("Relay", nil)
	}
	for i, id := range ids {
		mustSend(rt, id, &wire{Next: ids[(i+1)%ringMachines]})
	}
	if err := rt.Wait(); err != nil {
		return 0, err
	}
	start := time.Now()
	mustSend(rt, ids[0], &hop{Left: hops})
	err := rt.Wait()
	wall := time.Since(start)
	rt.Stop()
	if err != nil {
		return 0, err
	}
	var want uint64
	for i := 0; i < hops; i++ {
		want = want*31 + step
	}
	if delivered != hops || sum != want {
		return 0, fmt.Errorf("prod_runtime: ring delivered %d of %d hops, checksum %x want %x", delivered, hops, sum, want)
	}
	return wall, nil
}

type item struct {
	psharp.EventBase
	V    uint64
	From psharp.MachineID
}

type flood struct {
	psharp.EventBase
	Sink psharp.MachineID
	Seed uint64
	N    int
}

type credit struct{ psharp.EventBase }

// fanin has each sender push n seed-derived values into one sink, which
// counts and sums them. A sender keeps at most faninWindow messages
// unacknowledged: a machine's dequeue shifts its whole queue, so an
// unbounded flood costs time quadratic in the backlog and measures mostly
// how far the sink happened to fall behind.
func (w *prodRuntime) fanin(n int) (time.Duration, error) {
	var got int
	var sum uint64
	rt := psharp.NewRuntime()
	rt.MustRegister("Sink", func() psharp.Machine {
		seen := make(map[psharp.MachineID]int)
		return psharp.MachineFunc(func(sc *psharp.Schema) {
			sc.Start("Run").OnEventDo(&item{}, func(ctx *psharp.Context, ev psharp.Event) {
				it := ev.(*item)
				got++
				sum += it.V
				if seen[it.From]++; seen[it.From]%faninWindow == 0 {
					ctx.Send(it.From, &credit{})
				}
			})
		})
	})
	rt.MustRegister("Sender", func() psharp.Machine {
		var sink psharp.MachineID
		var r *rand.Rand
		var left int
		burst := func(ctx *psharp.Context) {
			for i := 0; i < faninWindow && left > 0; i++ {
				ctx.Send(sink, &item{V: r.Uint64(), From: ctx.ID()})
				left--
			}
		}
		return psharp.MachineFunc(func(sc *psharp.Schema) {
			sc.Start("Run").
				OnEventDo(&flood{}, func(ctx *psharp.Context, ev psharp.Event) {
					f := ev.(*flood)
					sink, r, left = f.Sink, rand.New(rand.NewPCG(f.Seed, 2)), f.N
					burst(ctx)
				}).
				OnEventDo(&credit{}, func(ctx *psharp.Context, _ psharp.Event) { burst(ctx) })
		})
	})
	sink := rt.MustCreate("Sink", nil)
	senders := make([]psharp.MachineID, faninSenders)
	for i := range senders {
		senders[i] = rt.MustCreate("Sender", nil)
	}
	if err := rt.Wait(); err != nil {
		return 0, err
	}
	var want uint64
	for i := range senders {
		r := rand.New(rand.NewPCG(subseed(w.seed, i), 2))
		for j := 0; j < n; j++ {
			want += r.Uint64()
		}
	}
	start := time.Now()
	for i, id := range senders {
		mustSend(rt, id, &flood{Sink: sink, Seed: subseed(w.seed, i), N: n})
	}
	err := rt.Wait()
	wall := time.Since(start)
	rt.Stop()
	if err != nil {
		return 0, err
	}
	if got != faninSenders*n || sum != want {
		return 0, fmt.Errorf("prod_runtime: fanin delivered %d of %d messages, checksum %x want %x", got, faninSenders*n, sum, want)
	}
	return wall, nil
}

func (w *prodRuntime) round(tr *tracer, rr *roundResult) error {
	hops, n := scaled(ringHops, w.scale, 8), scaled(faninMessages, w.scale, 8)
	var wall time.Duration
	var err error
	tr.do("runtime.ring", func() { wall, err = w.ring(hops) })
	if err != nil {
		return err
	}
	rr.add(cell{name: "ring", ops: int64(hops), steps: int64(hops), wall: wall})
	tr.do("runtime.fanin", func() { wall, err = w.fanin(n) })
	if err != nil {
		return err
	}
	rr.add(cell{name: "fanin", ops: int64(faninSenders * n), steps: int64(faninSenders * n), wall: wall})
	return nil
}

func (w *prodRuntime) close() error { return nil }

func (w *prodRuntime) layers(tr *tracer, rounds []roundResult, out map[string]float64) error {
	var wall [2]time.Duration
	var msgs [2]int64
	for _, rr := range rounds {
		for i, c := range rr.cells {
			wall[i], msgs[i] = wall[i]+c.wall, msgs[i]+c.ops
		}
	}
	out["runtime.ring_ns_per_msg"] = float64(wall[0].Nanoseconds()) / float64(msgs[0])
	out["runtime.fanin_ns_per_msg"] = float64(wall[1].Nanoseconds()) / float64(msgs[1])

	n := scaled(10000, w.scale, 10)
	var create time.Duration
	var err error
	tr.do("probe.create", func() {
		rt := psharp.NewRuntime()
		rt.MustRegister("Idle", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) { sc.Start("Run").Ignore(&item{}) })
		})
		start := time.Now()
		for i := 0; i < n; i++ {
			rt.MustCreate("Idle", nil)
		}
		create = time.Since(start)
		err = rt.Wait()
		rt.Stop()
	})
	if err != nil {
		return err
	}
	out["runtime.create_us_per_machine"] = float64(create.Microseconds()) / float64(n)
	return nil
}

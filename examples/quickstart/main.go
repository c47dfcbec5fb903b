// Quickstart: a ping-pong pair of P# machines run first on the production
// runtime and then under systematic concurrency testing.
package main

import (
	"fmt"
	"log"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// Events. Payloads travel by reference, so use pointer types.

type evConfig struct {
	psharp.EventBase
	Server psharp.MachineID
	Rounds int
}

type evPing struct {
	psharp.EventBase
	From  psharp.MachineID
	Round int
}

type evPong struct {
	psharp.EventBase
	Round int
}

// server answers every ping with a pong. It uses the static declaration
// form (ConfigureType + StaticBase): the schema is a property of the type,
// compiled once per registration, and handlers receive the instance as a
// parameter instead of closing over it.
type server struct {
	psharp.StaticBase
	served int
}

func (*server) ConfigureType(sc *psharp.Schema) {
	sc.Start("Serving").
		OnEventDoM(&evPing{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ping := ev.(*evPing)
			m.(*server).served++
			ctx.Send(ping.From, &evPong{Round: ping.Round})
		})
}

// client plays a fixed number of rounds, then halts.
type client struct {
	psharp.StaticBase
	server psharp.MachineID
	rounds int
	round  int
}

func (*client) ConfigureType(sc *psharp.Schema) {
	sc.Start("Init").
		OnEventDoM(&evConfig{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*client)
			cfg := ev.(*evConfig)
			c.server = cfg.Server
			c.rounds = cfg.Rounds
			ctx.Send(c.server, &evPing{From: ctx.ID(), Round: 1})
			ctx.Goto("Playing")
		})
	sc.State("Playing").
		OnEventDoM(&evPong{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*client)
			pong := ev.(*evPong)
			ctx.Assert(pong.Round == c.round+1, "out-of-order pong: %d after %d", pong.Round, c.round)
			c.round = pong.Round
			if c.round == c.rounds {
				ctx.Logf("done after %d rounds", c.round)
				ctx.Halt()
				return
			}
			ctx.Send(c.server, &evPing{From: ctx.ID(), Round: c.round + 1})
		})
}

func setup(r *psharp.Runtime) {
	r.MustRegister("Server", func() psharp.Machine { return &server{} })
	r.MustRegister("Client", func() psharp.Machine { return &client{} })
	srv := r.MustCreate("Server", nil)
	cli := r.MustCreate("Client", nil)
	if err := r.SendEvent(cli, &evConfig{Server: srv, Rounds: 5}); err != nil {
		log.Fatal(err)
	}
}

func main() {
	// 1. Production runtime: machines run concurrently, each on a goroutine
	// only while it has events to handle. Wait returns at quiescence (or with
	// the first failure); nothing is left running then, so Stop is optional.
	rt := psharp.NewRuntime()
	setup(rt)
	if err := rt.Wait(); err != nil {
		log.Fatalf("production run failed: %v", err)
	}
	rt.Stop()
	fmt.Println("production run: quiescent, no failures")

	// 2. Bug-finding mode: explore 1000 random schedules.
	rep := sct.Run(setup, sct.Options{
		Strategy:   sct.NewRandom(42),
		Iterations: 1000,
		MaxSteps:   10000,
	})
	fmt.Printf("systematic testing: %s\n", rep.String())

	// 3. Exhaustive DFS: the ping-pong schedule space is tiny.
	dfs := sct.Run(setup, sct.Options{
		Strategy:   sct.NewDFS(),
		Iterations: 1_000_000,
		MaxSteps:   10000,
	})
	fmt.Printf("exhaustive DFS: explored %d schedules (exhausted=%v, bug=%v)\n",
		dfs.Iterations, dfs.Exhausted, dfs.BugFound())
}

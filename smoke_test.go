package psharp_test

import (
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// Ping-pong smoke machines: client sends N pings, server pongs back.

type evPing struct {
	psharp.EventBase
	From psharp.MachineID
}

type evPong struct{ psharp.EventBase }

type evConfig struct {
	psharp.EventBase
	Server psharp.MachineID
	Rounds int
}

// The smoke machines use the static declaration form, exercising the
// per-type schema cache on both execution modes.

type pongServer struct{ psharp.StaticBase }

func (*pongServer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Serving").
		OnEventDoM(&evPing{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(ev.(*evPing).From, &evPong{})
		})
}

type pingClient struct {
	psharp.StaticBase
	server psharp.MachineID
	left   int
	done   *int
}

func newPingClient(done *int) *pingClient { return &pingClient{done: done} }

func (*pingClient) ConfigureType(sc *psharp.Schema) {
	sc.Start("Init").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*pingClient)
			cfg := ev.(*evConfig)
			c.server = cfg.Server
			c.left = cfg.Rounds
			ctx.Send(c.server, &evPing{From: ctx.ID()})
		}).
		OnEventDoM(&evPong{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*pingClient)
			c.left--
			if c.left > 0 {
				ctx.Send(c.server, &evPing{From: ctx.ID()})
				return
			}
			*c.done++
			ctx.Halt()
		})
}

func pingPongSetup(rounds int, done *int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Server", func() psharp.Machine { return &pongServer{} })
		r.MustRegister("Client", func() psharp.Machine { return newPingClient(done) })
		server := r.MustCreate("Server", nil)
		r.MustCreate("Client", &evConfig{Server: server, Rounds: rounds})
	}
}

func TestSmokeProductionPingPong(t *testing.T) {
	done := 0
	r := psharp.NewRuntime()
	pingPongSetup(3, &done)(r)
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done != 1 {
		t.Fatalf("client did not finish: done=%d", done)
	}
	r.Stop()
}

func TestSmokeSerializedPingPong(t *testing.T) {
	done := 0
	res := psharp.RunTest(pingPongSetup(3, &done), psharp.TestConfig{
		Strategy: sct.NewRandom(1),
		MaxSteps: 1000,
	})
	if res.Bug != nil {
		t.Fatalf("unexpected bug: %v", res.Bug)
	}
	if res.BoundReached {
		t.Fatal("bound reached unexpectedly")
	}
	if done != 1 {
		t.Fatalf("client did not finish: done=%d", done)
	}
	if res.SchedulingPoints == 0 {
		t.Fatal("expected scheduling points")
	}
}

func TestSmokeDFSExhaustsPingPong(t *testing.T) {
	done := 0
	rep := sct.Run(pingPongSetup(2, &done), sct.Options{
		Strategy:   sct.NewDFS(),
		Iterations: 100000,
		MaxSteps:   1000,
	})
	if !rep.Exhausted {
		t.Fatalf("DFS did not exhaust: %s", rep.String())
	}
	if rep.BugFound() {
		t.Fatalf("unexpected bug: %v", rep.FirstBug)
	}
	t.Logf("ping-pong schedule tree: %d schedules", rep.Iterations)
}

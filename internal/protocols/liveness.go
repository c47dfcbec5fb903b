package protocols

import "github.com/psharp-go/psharp"

// FairResponder is the liveness benchmark of the specification layer: a
// client/server request-response protocol whose "every request is
// eventually answered" property is expressed by a hot/cold monitor, with a
// seeded lost-request bug that only that monitor can expose.
//
// The server answers a request by chopping the work into chunks (one
// self-send per chunk) before responding, and an admin machine concurrently
// takes the server through a reconfiguration window (Reconfigure ...
// UpdateDone). The correct server defers a request that arrives inside the
// window and answers it afterwards; the buggy server ignores it — the
// request is silently dropped, a classic lost-signal bug. A pacer machine
// ticks forever, so the system never quiesces and never deadlocks: the lost
// request is invisible to every safety check, and the paper's random
// scheduler without the monitor misses it at any budget. Only the
// ResponseMonitor sees it — hot from the moment the request is sent, cold at
// the response. With the monitor attached (SetupMonitored), once the server
// has dropped the request every schedule spins on the pacer with the monitor
// hot: the program returns to a global state it was in, on a cycle that
// schedules every enabled machine, and the testing controller reports that
// fair lasso as BugLiveness under any strategy, with a replayable trace. In
// the correct variant, until the response is sent, a machine that moves
// toward it whenever it steps — the server, or the admin closing the window
// the request waits out — is enabled, so every cycle that keeps the monitor
// hot starves it and is not reported.

const lvChunks = 6

type lvClientConfig struct {
	psharp.EventBase
	Server psharp.MachineID
}

type lvAdminConfig struct {
	psharp.EventBase
	Server psharp.MachineID
}

type lvRequest struct {
	psharp.EventBase
	From psharp.MachineID
}

type lvResponse struct{ psharp.EventBase }

type lvReconfigure struct{ psharp.EventBase }

type lvUpdateDone struct{ psharp.EventBase }

type lvChunk struct {
	psharp.EventBase
	Left   int
	Client psharp.MachineID
}

type lvTick struct{ psharp.EventBase }

// lvServer answers requests in lvChunks pieces of work; a reconfiguration
// window may interrupt it. The seeded bug: the buggy variant drops (ignores)
// a request that arrives during the window instead of deferring it.
type lvServer struct {
	psharp.StaticBase
	buggy bool
}

func (probe *lvServer) ConfigureType(sc *psharp.Schema) {
	serve := func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		req := ev.(*lvRequest)
		ctx.Send(ctx.ID(), &lvChunk{Left: lvChunks, Client: req.From})
	}
	sc.Start("Serving").
		OnEventDoM(&lvRequest{}, serve).
		OnEventDoM(&lvChunk{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := ev.(*lvChunk)
			if c.Left > 0 {
				ctx.Send(ctx.ID(), &lvChunk{Left: c.Left - 1, Client: c.Client})
				return
			}
			ctx.Send(c.Client, &lvResponse{})
		}).
		OnEventGoto(&lvReconfigure{}, "Updating").
		Ignore(&lvUpdateDone{})

	updating := sc.State("Updating")
	updating.Defer(&lvChunk{}) // in-flight work resumes after the window
	updating.OnEventGoto(&lvUpdateDone{}, "Serving")
	if probe.buggy {
		// The seeded liveness bug: a request arriving inside the
		// reconfiguration window is silently dropped. No assertion fails, no
		// event goes unhandled, the system keeps running — only the response
		// obligation is lost.
		updating.Ignore(&lvRequest{})
	} else {
		updating.Defer(&lvRequest{})
	}
}

// lvClient issues one request and passively receives the response.
type lvClient struct{ psharp.StaticBase }

func (*lvClient) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		Ignore(&lvResponse{}).
		OnEventDoM(&lvClientConfig{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(ev.(*lvClientConfig).Server, &lvRequest{From: ctx.ID()})
		})
}

// lvAdmin opens and closes the server's reconfiguration window.
type lvAdmin struct{ psharp.StaticBase }

func (*lvAdmin) ConfigureType(sc *psharp.Schema) {
	sc.Start("Boot").
		OnEventDoM(&lvAdminConfig{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			server := ev.(*lvAdminConfig).Server
			ctx.Send(server, &lvReconfigure{})
			ctx.Send(server, &lvUpdateDone{})
			ctx.Halt()
		})
}

// lvPacer ticks itself forever so the system never quiesces: the lost
// request cannot surface as a deadlock or unhandled event.
type lvPacer struct{ psharp.StaticBase }

func (*lvPacer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Ticking").
		OnEventDoM(&lvTick{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(ctx.ID(), ev)
		})
}

// lvResponseMonitor is the hot/cold liveness specification: hot between an
// observed request and its response.
type lvResponseMonitor struct{ psharp.StaticBase }

func (*lvResponseMonitor) ConfigureType(sc *psharp.Schema) {
	sc.Start("Idle").Cold().
		OnEventGoto(&lvRequest{}, "AwaitingResponse")
	sc.State("AwaitingResponse").Hot().
		OnEventGoto(&lvResponse{}, "Idle")
}

func fairResponderBenchmark(buggy bool) Benchmark {
	return Benchmark{
		Name:     "FairResponder",
		Buggy:    buggy,
		MaxSteps: 600,
		Machines: 4,
		Setup: func(r *psharp.Runtime) {
			r.MustRegister("LvServer", func() psharp.Machine { return &lvServer{buggy: buggy} })
			r.MustRegister("LvClient", func() psharp.Machine { return &lvClient{} })
			r.MustRegister("LvAdmin", func() psharp.Machine { return &lvAdmin{} })
			r.MustRegister("LvPacer", func() psharp.Machine { return &lvPacer{} })
			server := r.MustCreate("LvServer", nil)
			client := r.MustCreate("LvClient", nil)
			admin := r.MustCreate("LvAdmin", nil)
			pacer := r.MustCreate("LvPacer", nil)
			mustSend(r, client, &lvClientConfig{Server: server})
			mustSend(r, admin, &lvAdminConfig{Server: server})
			mustSend(r, pacer, &lvTick{})
		},
		Monitors: func(r *psharp.Runtime) {
			r.MustRegisterMonitor("ResponseMonitor", func() psharp.Machine { return &lvResponseMonitor{} })
		},
	}
}

package psharp_test

// The monitor bug-shape oracle: every way a specification monitor can fail,
// with the bug it reports pinned field by field — Kind, Monitor, State, the
// zero Machine and Message — as the build that kept monitors in an instance
// type of their own reported them. A monitor is now a machine instance that
// observes, run through the machines' handler path; these bugs must not
// notice.

import (
	"bytes"
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// mtCount is a static-form monitor keeping its own count: the second
// observed request fails it.
type mtCount struct {
	psharp.StaticBase
	n int
}

func (*mtCount) ConfigureType(sc *psharp.Schema) {
	sc.Start("Counting").
		OnEventDoM(&mtReq{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*mtCount)
			c.n++
			ctx.Assert(c.n < 2, "request %d observed", c.n)
		})
}

// oracleSpec is a static monitor whose schema is its declare field's: a
// case's declaration, the same on every instance.
type oracleSpec struct {
	psharp.StaticBase
	declare func(sc *psharp.Schema)
}

func (probe *oracleSpec) ConfigureType(sc *psharp.Schema) { probe.declare(sc) }

// oracleMonitor declares a monitor from its schema.
func oracleMonitor(declare func(sc *psharp.Schema)) func() psharp.Machine {
	return func() psharp.Machine { return &oracleSpec{declare: declare} }
}

// waitingSpec goes hot at a request and stays hot. It is not an oracleSpec:
// the lasso case needs the state hashed, and a func field cannot be.
type waitingSpec struct{ psharp.StaticBase }

func (*waitingSpec) ConfigureType(sc *psharp.Schema) {
	sc.Start("Idle").Cold().OnEventGoto(&mtReq{}, "Waiting")
	sc.State("Waiting").Hot().Ignore(&mtReq{})
}

// echo raises a response to itself on each request, and ignores that.
type echo struct{ psharp.StaticBase }

func (*echo) ConfigureType(sc *psharp.Schema) {
	sc.Start("Idle").
		OnEventDoM(&mtReq{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Raise(&mtResp{}) }).
		Ignore(&mtResp{})
}

// oracleSetup registers spec as the monitor "Spec" beside a machine that
// ignores requests, raises a response to itself on each and ignores that too,
// and sends it two requests from the environment: each send and each raise is
// an observation.
func oracleSetup(spec func() psharp.Machine) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Echo", func() psharp.Machine { return &echo{} })
		r.MustRegisterMonitor("Spec", spec)
		e := r.MustCreate("Echo", nil)
		for i := 0; i < 2; i++ {
			if err := r.SendEvent(e, &mtReq{}); err != nil {
				panic(err)
			}
		}
	}
}

// onReq declares a one-state monitor whose request handler is fn.
func onReq(fn func(ctx *psharp.Context)) func() psharp.Machine {
	return oracleMonitor(func(sc *psharp.Schema) {
		sc.Start("S").OnEventDoM(&mtReq{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) { fn(ctx) })
	})
}

// monitorOracleCase is one way to fail; a liveness bug is the testing
// runtime's verdict only.
type monitorOracleCase struct {
	name  string
	setup func(*psharp.Runtime)
	want  psharp.Bug
}

func monitorOracleCases() []monitorOracleCase {
	forbidden := func(op string, call func(ctx *psharp.Context)) monitorOracleCase {
		return monitorOracleCase{name: "forbidden " + op, setup: oracleSetup(onReq(call)),
			want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S",
				Message: "monitors cannot " + op + ": they are passive observers"}}
	}
	return []monitorOracleCase{
		{name: "assert in initial entry", setup: oracleSetup(oracleMonitor(func(sc *psharp.Schema) {
			sc.Start("S").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
				ctx.Assert(ev == nil, "unreachable")
				ctx.Assert(false, "initial entry of %s", ctx.State())
			})
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S", Message: "initial entry of S"}},

		{name: "assert in entry after goto", setup: oracleSetup(oracleMonitor(func(sc *psharp.Schema) {
			sc.Start("S").OnEventGoto(&mtReq{}, "T")
			sc.State("T").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
				_, isReq := ev.(*mtReq)
				ctx.Assert(!isReq, "entered %s on the request", ctx.State())
			})
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "T", Message: "entered T on the request"}},

		{name: "assert in handler", setup: oracleSetup(onReq(func(ctx *psharp.Context) {
			ctx.Assert(false, "handler of %s in %s", ctx.ID().Type, ctx.State())
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S", Message: "handler of Spec in S"}},

		{name: "assert in static handler after a count", setup: oracleSetup(func() psharp.Machine { return &mtCount{} }),
			want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "Counting", Message: "request 2 observed"}},

		{name: "assert in exit", setup: oracleSetup(oracleMonitor(func(sc *psharp.Schema) {
			sc.Start("S").OnEventGoto(&mtReq{}, "T").
				OnExitM(func(_ psharp.Machine, ctx *psharp.Context) { ctx.Assert(false, "leaving %s", ctx.State()) })
			sc.State("T")
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S", Message: "leaving S"}},

		{name: "exit calls Goto", setup: oracleSetup(oracleMonitor(func(sc *psharp.Schema) {
			sc.Start("S").OnEventGoto(&mtReq{}, "T").
				OnExitM(func(_ psharp.Machine, ctx *psharp.Context) { ctx.Goto("U") })
			sc.State("T")
			sc.State("U")
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S",
			Message: "monitor exit actions must not call Goto, Raise or Halt"}},

		{name: "exit calls Raise", setup: oracleSetup(oracleMonitor(func(sc *psharp.Schema) {
			sc.Start("S").OnEventGoto(&mtReq{}, "T").
				OnExitM(func(_ psharp.Machine, ctx *psharp.Context) { ctx.Raise(&mtResp{}) })
			sc.State("T").Ignore(&mtResp{})
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S",
			Message: "monitor exit actions must not call Goto, Raise or Halt"}},

		{name: "raise of an unbound event", setup: oracleSetup(onReq(func(ctx *psharp.Context) { ctx.Raise(&mtOutcome{}) })),
			want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S",
				Message: `raised event mtOutcome cannot be handled in state "S"`}},

		{name: "raise of HaltEvent", setup: oracleSetup(onReq(func(ctx *psharp.Context) { ctx.Raise(&psharp.HaltEvent{}) })),
			want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S",
				Message: `raised event HaltEvent cannot be handled in state "S"`}},

		{name: "raise chains into a goto", setup: oracleSetup(oracleMonitor(func(sc *psharp.Schema) {
			sc.Start("S").
				OnEventDoM(&mtReq{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) { ctx.Raise(&mtOutcome{Commit: true}) }).
				OnEventGoto(&mtOutcome{}, "T")
			sc.State("T").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
				ctx.Assert(!ev.(*mtOutcome).Commit, "entered %s on the raised outcome", ctx.State())
			})
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "T", Message: "entered T on the raised outcome"}},

		{name: "observes a machine's raise", setup: oracleSetup(oracleMonitor(func(sc *psharp.Schema) {
			sc.Start("S").Ignore(&mtReq{}).
				OnEventDoM(&mtResp{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) { ctx.Assert(false, "saw the raise") })
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S", Message: "saw the raise"}},

		{name: "panic in handler", setup: oracleSetup(onReq(func(ctx *psharp.Context) {
			var m map[string]int
			m["x"] = 1
		})), want: psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S", Message: "assignment to entry in nil map"}},

		forbidden("Send", func(ctx *psharp.Context) { ctx.Send(psharp.MachineID{Type: "Echo", Seq: 1}, &mtResp{}) }),
		forbidden("CreateMachine", func(ctx *psharp.Context) { ctx.CreateMachine("Echo", nil) }),
		forbidden("Halt", func(ctx *psharp.Context) { ctx.Halt() }),
		forbidden("RandomBool", func(ctx *psharp.Context) { ctx.RandomBool() }),
		forbidden("RandomInt", func(ctx *psharp.Context) { ctx.RandomInt(2) }),
		forbidden("Read", func(ctx *psharp.Context) { ctx.Read("x") }),
		forbidden("Write", func(ctx *psharp.Context) { ctx.Write("x") }),

		{name: "hot at quiescence", setup: oracleSetup(func() psharp.Machine { return &waitingSpec{} }),
			want: psharp.Bug{Kind: psharp.BugLiveness, Monitor: "Spec", State: "Waiting",
				Message: `monitor still hot in state "Waiting" when the program quiesced`}},

		{name: "fair lasso", setup: livenessSpinSetup(),
			want: psharp.Bug{Kind: psharp.BugLiveness, Monitor: "Responds", State: "Waiting",
				Message: `monitor Responds stays hot in state "Waiting" around a fair cycle of length 1: the state at decision 1 recurs at decision 2`}},
	}
}

// TestMonitorBugShapes runs every case under the testing runtime — one-shot,
// and through a harness recycled across three iterations — and every safety
// case under the production runtime too, and wants the pinned bug each time.
func TestMonitorBugShapes(t *testing.T) {
	for _, tc := range monitorOracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := psharp.TestConfig{MaxSteps: 200}
			check := func(how string, got *psharp.Bug) {
				t.Helper()
				if got == nil {
					t.Fatalf("%s: no bug, want %+v", how, tc.want)
				}
				if *got != tc.want {
					t.Errorf("%s:\n got %+v\nwant %+v", how, *got, tc.want)
				}
			}
			cfg.Strategy = mustPrepared(sct.NewRandom(1))
			check("RunTest", psharp.RunTest(tc.setup, cfg).Bug)
			h := psharp.NewTestHarness(tc.setup)
			defer h.Close()
			for i := 0; i < 3; i++ {
				cfg.Strategy = mustPrepared(sct.NewRandom(uint64(i) + 1))
				check("harness", h.Run(cfg).Bug)
			}
			if tc.want.Kind == psharp.BugLiveness {
				return
			}
			r := psharp.NewRuntime()
			tc.setup(r)
			err := r.Wait()
			r.Stop()
			bug, _ := err.(*psharp.Bug)
			check("production", bug)
		})
	}
}

// TestMonitorMessagesNameTheMonitor: what a monitor's Context reports of
// itself — in a failed Goto, Raise or double effect, and in the log — names
// the monitor, not "<nil-machine>", the name of the zero MachineID.
func TestMonitorMessagesNameTheMonitor(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(ctx *psharp.Context)
		want string
	}{
		{"goto an undeclared state", func(ctx *psharp.Context) { ctx.Goto("Nowhere") },
			`monitor Spec: Goto("Nowhere"): no such state`},
		{"raise nil", func(ctx *psharp.Context) { ctx.Raise(nil) },
			"monitor Spec: Raise of nil event"},
		{"second pending effect", func(ctx *psharp.Context) { ctx.Goto("S"); ctx.Raise(&mtResp{}) },
			"monitor Spec: Raise: another Goto/Raise/Halt is already pending"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := psharp.RunTest(oracleSetup(onReq(tc.call)), psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1))})
			want := psharp.Bug{Kind: psharp.BugMonitor, Monitor: "Spec", State: "S", Message: tc.want}
			if res.Bug == nil || *res.Bug != want {
				t.Fatalf("bug = %+v, want %+v", res.Bug, want)
			}
		})
	}

	var log bytes.Buffer
	setup := oracleSetup(oracleMonitor(func(sc *psharp.Schema) {
		sc.Start("S").OnEventGoto(&mtReq{}, "T")
		sc.State("T").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) { ctx.Logf("entered") }).Ignore(&mtReq{})
	}))
	if res := psharp.RunTest(setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1)), Log: &log}); res.Bug != nil {
		t.Fatalf("unexpected bug %v", res.Bug)
	}
	for _, line := range []string{`[psharp] monitor Spec: "S" -> "T"`, "[psharp] monitor Spec: entered"} {
		if !strings.Contains(log.String(), line+"\n") {
			t.Errorf("log lacks %q:\n%s", line, log.String())
		}
	}
}

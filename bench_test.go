package psharp_test

// Benchmarks regenerating the paper's evaluation (one bench per table row
// group, plus the ablations called out in DESIGN.md). Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the host; the claims under test are the
// relative shapes (see EXPERIMENTS.md).

import (
	"fmt"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/analysis"
	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/internal/tables"
	"github.com/psharp-go/psharp/interp"
	"github.com/psharp-go/psharp/lang"
	"github.com/psharp-go/psharp/sct"
)

// BenchmarkTable1Analyzer measures the static analyzer on every Table 1
// benchmark (the paper's per-benchmark analysis-time column).
func BenchmarkTable1Analyzer(b *testing.B) {
	for _, bench := range benchsrc.All() {
		prog, err := benchsrc.Source(bench.Name, false)
		if err != nil {
			b.Fatalf("load: %v", err)
		}
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analysis.Analyze(prog, analysis.Options{XSA: true})
			}
		})
	}
}

// benchSCT runs a fixed number of schedules per iteration and reports
// schedules/second — the paper's #Sch/sec metric.
func benchSCT(b *testing.B, name string, mode tables.SchedulerMode, schedules int) {
	bench := protocols.MustByName(name, true)
	b.ReportAllocs()
	totalSchedules := 0
	for i := 0; i < b.N; i++ {
		opts := sct.Options{
			Iterations:    schedules,
			MaxSteps:      bench.MaxSteps,
			LivelockAsBug: bench.LivelockAsBug,
		}
		switch mode {
		case tables.ModeChessRDOn:
			opts.Strategy = sct.NewDFS()
			opts.ChessLike = true
			opts.RaceDetect = true
		case tables.ModeChessRDOff:
			opts.Strategy = sct.NewDFS()
			opts.ChessLike = true
		case tables.ModePSharpDFS:
			opts.Strategy = sct.NewDFS()
		case tables.ModePSharpRandom:
			opts.Strategy = sct.NewRandom(uint64(i) + 1)
		}
		rep := sct.Run(bench.Setup, opts)
		totalSchedules += rep.Iterations
	}
	b.ReportMetric(float64(totalSchedules)/b.Elapsed().Seconds(), "schedules/s")
}

// BenchmarkTable2 measures every buggy protocol under the four Table 2
// configurations (CHESS-like with and without race detection, P# DFS, P#
// random). 50 schedules per iteration keeps individual benches short; the
// schedules/s metric is budget-independent.
func BenchmarkTable2(b *testing.B) {
	modes := []tables.SchedulerMode{
		tables.ModeChessRDOn, tables.ModeChessRDOff,
		tables.ModePSharpDFS, tables.ModePSharpRandom,
	}
	for _, name := range protocols.Names() {
		if _, ok := protocols.ByName(name, true); !ok {
			continue
		}
		for _, mode := range modes {
			mode := mode
			name := name
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				benchSCT(b, name, mode, 50)
			})
		}
	}
}

// BenchmarkIterationAllocs compares the seed's per-iteration entry point
// (one-shot RunTest, which rebuilds the runtime, machines, goroutines, and
// trace every call) against the pooled TestHarness on the same workload:
// once on the spin hot-path program (where the runtime's own overhead
// dominates and pooling saves most of it — the ≥50% claim, gated hard by
// TestHarnessHalvesAllocations) and once on a protocol benchmark. Both
// workloads declare their machines in the static form, so the pooled
// numbers reflect per-type schema caching: the steady state pays only
// machine logic and wiring, never schema rebuilds (locked in by
// TestProtocolAllocationCap).
func BenchmarkIterationAllocs(b *testing.B) {
	tpc := protocols.MustByName("TwoPhaseCommit", true)
	workloads := []struct {
		name  string
		setup func(*psharp.Runtime)
		cfg   psharp.TestConfig
	}{
		{"spin", spinSetup(64), psharp.TestConfig{}},
		{"TwoPhaseCommit", tpc.Setup, psharp.TestConfig{MaxSteps: tpc.MaxSteps}},
	}
	for _, w := range workloads {
		b.Run(w.name+"/oneshot", func(b *testing.B) {
			strategy := sct.NewRandom(1)
			cfg := w.cfg
			cfg.Strategy = strategy
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				strategy.PrepareIteration(i)
				psharp.RunTest(w.setup, cfg)
			}
		})
		b.Run(w.name+"/pooled", func(b *testing.B) {
			h := psharp.NewTestHarness(w.setup)
			defer h.Close()
			strategy := sct.NewRandom(1)
			cfg := w.cfg
			cfg.Strategy = strategy
			for i := 0; i < 3; i++ { // warm the instance pool and buffers
				strategy.PrepareIteration(i)
				h.Run(cfg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				strategy.PrepareIteration(i + 3)
				h.Run(cfg)
			}
		})
	}
}

// BenchmarkParallelExploration compares sequential runs (one worker, which
// is Run) against RunParallel on protocol-corpus benchmarks: same seed, same
// budget, same schedule
// population (sharded seed streams), different worker counts. The claim
// under test is that schedules/s scales with workers.
func BenchmarkParallelExploration(b *testing.B) {
	for _, name := range []string{"Raft", "TwoPhaseCommit"} {
		bench := protocols.MustByName(name, true)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				totalSchedules := 0
				for i := 0; i < b.N; i++ {
					opts := sct.Options{
						Strategy:   sct.NewRandom(uint64(i) + 1),
						Iterations: 64,
						MaxSteps:   bench.MaxSteps,
					}
					rep := sct.RunParallel(bench.Setup, sct.ParallelOptions{Options: opts, Workers: workers}).Report
					totalSchedules += rep.Iterations
				}
				b.ReportMetric(float64(totalSchedules)/b.Elapsed().Seconds(), "schedules/s")
			})
		}
	}
}

// BenchmarkInterpCorpus runs seeded .psl schedules over the full Table 1
// corpus (racy and non-racy variants) under each interp engine. The claim
// under test is the bytecode VM's schedules/s advantage over the reference
// tree-walker (bash bench/run.sh reports it as interp.vm_ns_per_step against
// interp.walk_ns_per_step); -benchmem additionally shows the VM's zero
// steady-state allocations per schedule.
func BenchmarkInterpCorpus(b *testing.B) {
	type corpusProg struct {
		name string
		prog *lang.Program
	}
	var corpus []corpusProg
	for _, bench := range benchsrc.All() {
		prog, err := benchsrc.Source(bench.Name, false)
		if err != nil {
			b.Fatalf("load %s: %v", bench.Name, err)
		}
		corpus = append(corpus, corpusProg{bench.Name, prog})
		if bench.HasRacy {
			prog, err = benchsrc.Source(bench.Name, true)
			if err != nil {
				b.Fatalf("load %s racy: %v", bench.Name, err)
			}
			corpus = append(corpus, corpusProg{bench.Name + "Racy", prog})
		}
	}
	for _, engine := range []interp.Engine{interp.EngineWalk, interp.EngineBytecode} {
		engine := engine
		b.Run(engine.String(), func(b *testing.B) {
			// Warm the per-Program caches (schemas, bytecode) so the
			// measured loop is the steady state every exploration campaign
			// runs in.
			for _, cp := range corpus {
				interp.Run(cp.prog, cp.prog.Machines[0].Name, interp.Options{Engine: engine, Seed: 1})
			}
			b.ReportAllocs()
			b.ResetTimer()
			schedules := 0
			for i := 0; i < b.N; i++ {
				for _, cp := range corpus {
					interp.Run(cp.prog, cp.prog.Machines[0].Name,
						interp.Options{Engine: engine, Seed: uint64(i) + 1})
					schedules++
				}
			}
			b.ReportMetric(float64(schedules)/b.Elapsed().Seconds(), "schedules/s")
		})
	}
}

// BenchmarkAblationSchedulingGranularity isolates the paper's key runtime
// claim: scheduling only at send/create (P#) vs also at queue operations
// (CHESS granularity) on the same program and strategy.
func BenchmarkAblationSchedulingGranularity(b *testing.B) {
	bench := protocols.MustByName("German", false)
	for _, chess := range []bool{false, true} {
		name := "send-create-only"
		if chess {
			name = "chess-granularity"
		}
		chess := chess
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sct.Run(bench.Setup, sct.Options{
					Strategy:   sct.NewRandom(uint64(i) + 1),
					Iterations: 20,
					MaxSteps:   bench.MaxSteps,
					ChessLike:  chess,
				})
			}
		})
	}
}

// BenchmarkAblationRaceDetector isolates the RD-on/RD-off overhead on the
// same scheduler (the paper: CHESS runs 4-7.5x faster with its race
// detector off).
func BenchmarkAblationRaceDetector(b *testing.B) {
	bench := protocols.MustByName("ChainReplication", false)
	for _, rd := range []bool{true, false} {
		name := "RD-off"
		if rd {
			name = "RD-on"
		}
		rd := rd
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sct.Run(bench.Setup, sct.Options{
					Strategy:   sct.NewRandom(uint64(i) + 1),
					Iterations: 20,
					MaxSteps:   bench.MaxSteps,
					ChessLike:  true,
					RaceDetect: rd,
				})
			}
		})
	}
}

// BenchmarkAblationXSA measures the analysis cost of the cross-state
// analysis and the read-only extension on the heaviest Table 1 entries.
func BenchmarkAblationXSA(b *testing.B) {
	for _, name := range []string{"AsyncSystem", "MultiPaxos"} {
		prog, err := benchsrc.Source(name, false)
		if err != nil {
			b.Fatalf("load: %v", err)
		}
		for _, cfg := range []struct {
			label string
			opts  analysis.Options
		}{
			{"base", analysis.Options{}},
			{"xsa", analysis.Options{XSA: true}},
			{"xsa+readonly", analysis.Options{XSA: true, ReadOnly: true}},
		} {
			cfg := cfg
			b.Run(name+"/"+cfg.label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					analysis.Analyze(prog, cfg.opts)
				}
			})
		}
	}
}

// Events of BenchmarkProductionRuntime.
type (
	benchWire struct {
		psharp.EventBase
		Next psharp.MachineID
	}
	benchHop struct {
		psharp.EventBase
		Left int
	}
	benchFlood struct {
		psharp.EventBase
		Sink psharp.MachineID
		N    int
	}
	benchItem struct {
		psharp.EventBase
		From psharp.MachineID
	}
	benchCredit struct{ psharp.EventBase }
)

// BenchmarkProductionRuntime measures the concurrent (non-serialized)
// runtime, psharp.NewRuntime, on the two shapes bench/'s prod_runtime
// workload uses, one delivered message per b.N: ring passes one token round
// four relays, so it is bound by what it costs to hand a message to an idle
// machine; fanin has three senders fill one sink's mailbox, each at most 64
// messages ahead of the sink's acknowledgements, so it is bound by contention
// on that mailbox.
func BenchmarkProductionRuntime(b *testing.B) {
	run := func(b *testing.B, rt *psharp.Runtime, kick func()) {
		b.Helper()
		if err := rt.Wait(); err != nil { // every entry action has run
			b.Fatal(err)
		}
		b.ResetTimer()
		kick()
		err := rt.Wait()
		b.StopTimer()
		rt.Stop()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/msg")
	}
	b.Run("ring", func(b *testing.B) {
		const relays = 4
		delivered := false
		rt := psharp.NewRuntime()
		rt.MustRegister("Relay", func() psharp.Machine {
			var next psharp.MachineID
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Run").
					OnEventDo(&benchWire{}, func(_ *psharp.Context, ev psharp.Event) { next = ev.(*benchWire).Next }).
					OnEventDo(&benchHop{}, func(ctx *psharp.Context, ev psharp.Event) {
						if left := ev.(*benchHop).Left; left > 0 {
							ctx.Send(next, &benchHop{Left: left - 1})
						} else {
							delivered = true
						}
					})
			})
		})
		var ids [relays]psharp.MachineID
		for i := range ids {
			ids[i] = rt.MustCreate("Relay", nil)
		}
		for i, id := range ids {
			rt.SendEvent(id, &benchWire{Next: ids[(i+1)%relays]})
		}
		run(b, rt, func() { rt.SendEvent(ids[0], &benchHop{Left: b.N - 1}) })
		if !delivered {
			b.Fatal("the token did not finish its hops")
		}
	})
	b.Run("fanin", func(b *testing.B) {
		const senders, window = 3, 64
		got := 0
		rt := psharp.NewRuntime()
		rt.MustRegister("Sink", func() psharp.Machine {
			seen := make(map[psharp.MachineID]int)
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Run").OnEventDo(&benchItem{}, func(ctx *psharp.Context, ev psharp.Event) {
					from := ev.(*benchItem).From
					got++
					if seen[from]++; seen[from]%window == 0 {
						ctx.Send(from, &benchCredit{})
					}
				})
			})
		})
		rt.MustRegister("Sender", func() psharp.Machine {
			var sink psharp.MachineID
			left := 0
			burst := func(ctx *psharp.Context) {
				for i := 0; i < window && left > 0; i++ {
					ctx.Send(sink, &benchItem{From: ctx.ID()})
					left--
				}
			}
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Run").
					OnEventDo(&benchFlood{}, func(ctx *psharp.Context, ev psharp.Event) {
						sink, left = ev.(*benchFlood).Sink, ev.(*benchFlood).N
						burst(ctx)
					}).
					OnEventDo(&benchCredit{}, func(ctx *psharp.Context, _ psharp.Event) { burst(ctx) })
			})
		})
		sink := rt.MustCreate("Sink", nil)
		var ids [senders]psharp.MachineID
		for i := range ids {
			ids[i] = rt.MustCreate("Sender", nil)
		}
		run(b, rt, func() {
			for i, id := range ids {
				// b.N items in all: the first senders take the remainder.
				rt.SendEvent(id, &benchFlood{Sink: sink, N: (b.N + senders - 1 - i) / senders})
			}
		})
		if got != b.N {
			b.Fatalf("sink received %d of %d items", got, b.N)
		}
	})
}

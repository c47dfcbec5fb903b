package interp

// The differential harness: the tree-walker is the semantic reference, the
// bytecode VM must be observationally identical. Every Table 1 corpus
// program (racy and non-racy variants) runs under both engines across many
// seeds, and every observable of the Outcome — step counts, quiescence,
// bound exhaustion, fault messages, race reports, hot monitors, and the
// exact coverage multiset — must match. Fault paths that the corpus never
// exercises get their own miniature programs below.

import (
	"reflect"
	"testing"

	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/lang"
	"github.com/psharp-go/psharp/obs"
)

// runBoth executes one seed under both engines with race detection and
// coverage attached, dispatching at most maxSteps events (0: Run's default),
// and fails on any observable divergence. It returns the transitions the seed
// dispatched.
func runBoth(t *testing.T, prog *lang.Program, main string, seed uint64, maxSteps int) []obs.TransitionCount {
	t.Helper()
	var covW, covB obs.StateEventCoverage
	w := Run(prog, main, Options{Engine: EngineWalk, Seed: seed, MaxSteps: maxSteps, RaceDetect: true, Coverage: &covW})
	b := Run(prog, main, Options{Engine: EngineBytecode, Seed: seed, MaxSteps: maxSteps, RaceDetect: true, Coverage: &covB})
	if w.Steps != b.Steps {
		t.Fatalf("seed %d: steps walk=%d bytecode=%d", seed, w.Steps, b.Steps)
	}
	if w.Quiescent != b.Quiescent || w.BoundReached != b.BoundReached {
		t.Fatalf("seed %d: termination walk=(q=%v bound=%v) bytecode=(q=%v bound=%v)",
			seed, w.Quiescent, w.BoundReached, b.Quiescent, b.BoundReached)
	}
	if errString(w.Err) != errString(b.Err) {
		t.Fatalf("seed %d: error walk=%q bytecode=%q", seed, errString(w.Err), errString(b.Err))
	}
	if !reflect.DeepEqual(w.Races, b.Races) {
		t.Fatalf("seed %d: races walk=%v bytecode=%v", seed, w.Races, b.Races)
	}
	if !reflect.DeepEqual(w.HotMonitors, b.HotMonitors) {
		t.Fatalf("seed %d: hot monitors walk=%v bytecode=%v", seed, w.HotMonitors, b.HotMonitors)
	}
	sw, sb := covW.Snapshot(), covB.Snapshot()
	if !reflect.DeepEqual(sw, sb) {
		t.Fatalf("seed %d: coverage walk=%v bytecode=%v", seed, sw, sb)
	}
	return sb
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDifferentialCorpus locks the two engines together over the full
// Table 1 corpus: all 21 program variants, 12 seeds each. Together the seeds
// of a program must dispatch some, and no more than all, of the transitions
// it declares (DeclaredTransitions is the coverage ratio's denominator).
func TestDifferentialCorpus(t *testing.T) {
	for _, bm := range benchsrc.All() {
		variants := []bool{false}
		if bm.HasRacy {
			variants = append(variants, true)
		}
		for _, racy := range variants {
			bm, racy := bm, racy
			label := bm.Name
			if racy {
				label += "_racy"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				prog, err := benchsrc.Source(bm.Name, racy)
				if err != nil {
					t.Fatalf("source: %v", err)
				}
				main := prog.Machines[0].Name
				covered := map[obs.Transition]bool{}
				for seed := uint64(1); seed <= 12; seed++ {
					for _, tc := range runBoth(t, prog, main, seed, 0) {
						covered[tc.Transition] = true
					}
				}
				if declared := DeclaredTransitions(prog); len(covered) == 0 || len(covered) > declared {
					t.Errorf("covered %d transitions of %d declared", len(covered), declared)
				}
			})
		}
	}
}

// faultSrcs are miniature programs driving every fault path the corpus
// avoids, so the engines' error messages (and the step counts at failure)
// stay byte-identical.
var faultSrcs = map[string]string{
	"division_by_zero": `
machine main_m {
	start state Boot {
		entry {
			var a: int;
			var b: int;
			b := 0;
			a := 1 / b;
			assert a == 0;
		}
	}
}`,
	"modulo_by_zero": `
machine main_m {
	start state Boot {
		entry {
			var a: int;
			var b: int;
			b := 0;
			a := 1 % b;
			assert a == 0;
		}
	}
}`,
	"assertion": `
machine main_m {
	start state Boot {
		entry {
			assert 1 == 2;
		}
	}
}`,
	"unhandled_event": `
event eBoom;
machine main_m {
	start state Boot {
		entry {
			var w: machine;
			w := create sink();
			send w, eBoom;
		}
	}
}
machine sink {
	start state Idle {
	}
}`,
	"loop_bound": `
machine main_m {
	start state Boot {
		entry {
			var i: int;
			i := 0;
			while (true) {
				i := i + 1;
			}
		}
	}
}`,
	"undefined_variable": `
machine main_m {
	start state Boot {
		entry {
			var c: int;
			c := 1;
			if (c == 2) {
				var u: int;
				u := 3;
			}
			c := u;
		}
	}
}`,
	"raise_in_nested_call": `
event eX;
machine main_m {
	start state Boot {
		entry {
			var r: int;
			r := this.boom();
			assert r == 1;
		}
	}
	method boom(): int {
		raise eX;
		return 1;
	}
}`,
	"send_to_invalid_machine": `
event eX;
machine main_m {
	start state Boot {
		entry {
			var m: machine;
			send m, eX;
		}
	}
}`,
	"monitor_entry_assert": `
monitor bad_m {
	start state S {
		entry {
			assert false;
		}
	}
}
machine main_m {
	start state Boot {
		entry {
			var x: int;
			x := 0;
		}
	}
}`,
	"monitor_handler_assert": `
event eGo;
monitor watch_m {
	var hits: int;
	start state S {
		on eGo do note;
	}
	method note() {
		this.hits := this.hits + 1;
		assert this.hits == 0;
	}
}
machine main_m {
	start state Boot {
		entry {
			var w: machine;
			w := create main_m2();
			send w, eGo;
		}
	}
}
machine main_m2 {
	start state Idle {
		ignore eGo;
	}
}`,
}

// TestDifferentialFaults runs each fault program under both engines and
// requires identical error text and step accounting.
func TestDifferentialFaults(t *testing.T) {
	for name, src := range faultSrcs {
		t.Run(name, func(t *testing.T) {
			prog := load(t, src)
			w := Run(prog, "main_m", Options{Engine: EngineWalk, Seed: 1})
			b := Run(prog, "main_m", Options{Engine: EngineBytecode, Seed: 1})
			if w.Err == nil {
				t.Fatal("fault program did not fault under the walker")
			}
			if errString(w.Err) != errString(b.Err) {
				t.Fatalf("error walk=%q bytecode=%q", errString(w.Err), errString(b.Err))
			}
			if w.Steps != b.Steps {
				t.Fatalf("steps walk=%d bytecode=%d", w.Steps, b.Steps)
			}
			if IsAssertion(w.Err) != IsAssertion(b.Err) {
				t.Fatal("assertion classification diverged")
			}
		})
	}
}

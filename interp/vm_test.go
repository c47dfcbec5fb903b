package interp

import (
	"strings"
	"sync"
	"testing"

	"github.com/psharp-go/psharp/obs"
)

// TestBytecodeCompiledOncePerProgram asserts the compile-once discipline
// under concurrency: parallel Run calls over one Program share a single
// bytecode compilation through the AuxLoad/AuxStore cache.
func TestBytecodeCompiledOncePerProgram(t *testing.T) {
	prog := load(t, `
event ePing;
machine main_m {
	start state Boot {
		entry {
			var a: machine;
			a := create echo();
			send a, ePing;
		}
	}
}
machine echo {
	var hits: int;
	start state Waiting {
		on ePing do count;
	}
	method count() { this.hits := this.hits + 1; }
}
`)
	before := BytecodeCompiles()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seed := uint64(1); seed <= 25; seed++ {
				out := Run(prog, "main_m", Options{Seed: seed ^ uint64(w)<<32})
				if out.Err != nil || !out.Quiescent {
					t.Errorf("worker %d seed %d: err=%v quiescent=%v", w, seed, out.Err, out.Quiescent)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := BytecodeCompiles() - before; got != 1 {
		t.Fatalf("bytecode compiles across 200 concurrent runs = %d, want 1 per Program", got)
	}
	if compiledFor(prog) != compiledFor(prog) {
		t.Fatal("compiledFor returned distinct compilations for the same Program")
	}
}

// TestVMRaisedEventGoto drives the raised-event goto path through the
// bytecode engine explicitly and checks its coverage hit (the path that
// bypasses handle and records its own transition).
func TestVMRaisedEventGoto(t *testing.T) {
	prog := load(t, coverageSrc)
	var cov obs.StateEventCoverage
	out := Run(prog, "main_m", Options{Engine: EngineBytecode, Seed: 1, Coverage: &cov})
	if out.Err != nil || !out.Quiescent {
		t.Fatalf("err=%v quiescent=%v", out.Err, out.Quiescent)
	}
	snap := cov.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("coverage = %+v, want the eReq do and the raised eAck goto", snap)
	}
	if snap[0].Event != "eAck" || snap[0].State != "Waiting" {
		t.Fatalf("raised-goto transition not recorded: %+v", snap)
	}
}

// TestVMRaisedEventDeferred checks a raised event deferred by the current
// state: it must join the machine's own queue and be delivered after the
// state change, identically under both engines.
func TestVMRaisedEventDeferred(t *testing.T) {
	prog := load(t, `
event eWork;
event eOpen;
machine driver {
	start state Boot {
		entry {
			var w: machine;
			w := create worker();
			send w, eOpen;
		}
	}
}
machine worker {
	var got: int;
	start state Closed {
		entry {
			raise eWork;
		}
		defer eWork;
		on eOpen goto Open;
	}
	state Open {
		on eWork do take;
	}
	method take() {
		this.got := this.got + 1;
		assert this.got == 1;
	}
}
`)
	for _, eng := range []Engine{EngineWalk, EngineBytecode} {
		var cov obs.StateEventCoverage
		out := Run(prog, "driver", Options{Engine: eng, Seed: 1, Coverage: &cov})
		if out.Err != nil || !out.Quiescent {
			t.Fatalf("%v: err=%v quiescent=%v", eng, out.Err, out.Quiescent)
		}
		if got := cov.Distinct(); got != 2 {
			t.Fatalf("%v: coverage = %+v, want eOpen goto + deferred eWork do", eng, cov.Snapshot())
		}
	}
}

// TestVMRaisedEventIgnored checks a raised event ignored by the current
// state: dropped silently, no transition, no coverage.
func TestVMRaisedEventIgnored(t *testing.T) {
	prog := load(t, `
event eNoise;
machine main_m {
	start state S {
		entry {
			raise eNoise;
		}
		ignore eNoise;
	}
}
`)
	for _, eng := range []Engine{EngineWalk, EngineBytecode} {
		var cov obs.StateEventCoverage
		out := Run(prog, "main_m", Options{Engine: eng, Seed: 1, Coverage: &cov})
		if out.Err != nil || !out.Quiescent {
			t.Fatalf("%v: err=%v quiescent=%v", eng, out.Err, out.Quiescent)
		}
		if cov.Distinct() != 0 {
			t.Fatalf("%v: ignored raise recorded coverage: %+v", eng, cov.Snapshot())
		}
		if out.Steps != 1 {
			t.Fatalf("%v: steps = %d, want 1 (create only)", eng, out.Steps)
		}
	}
}

// TestVMScanPrecedence checks queue-scan precedence in the VM: an ignored
// event is dequeued during the enabled scan without blocking the
// dispatchable event behind it, and a deferred event is skipped, not
// dropped.
func TestVMScanPrecedence(t *testing.T) {
	prog := load(t, `
event eJunk;
event eLater;
event ePing;
event eOpen;
machine driver {
	start state Boot {
		entry {
			var w: machine;
			w := create worker();
			send w, eJunk;
			send w, eLater;
			send w, ePing;
			send w, eOpen;
		}
	}
}
machine worker {
	var pings: int;
	var lates: int;
	start state S {
		ignore eJunk;
		defer eLater;
		on ePing do pong;
		on eOpen goto Open;
	}
	state Open {
		on eLater do late;
	}
	method pong() { this.pings := this.pings + 1; }
	method late() {
		this.lates := this.lates + 1;
		assert this.pings == 1;
	}
}
`)
	for _, eng := range []Engine{EngineWalk, EngineBytecode} {
		var cov obs.StateEventCoverage
		out := Run(prog, "driver", Options{Engine: eng, Seed: 1, Coverage: &cov})
		if out.Err != nil || !out.Quiescent {
			t.Fatalf("%v: err=%v quiescent=%v", eng, out.Err, out.Quiescent)
		}
		// eJunk ignored (no hit); ePing do, eOpen goto, deferred eLater do.
		if got := cov.Distinct(); got != 3 {
			t.Fatalf("%v: coverage = %+v, want 3 transitions", eng, cov.Snapshot())
		}
	}
}

// TestDisassemble checks the listing is deterministic and names the
// interned operands symbolically.
func TestDisassemble(t *testing.T) {
	prog := load(t, coverageSrc)
	lst := Disassemble(prog)
	if lst != Disassemble(prog) {
		t.Fatal("Disassemble is not deterministic")
	}
	for _, want := range []string{
		"machine worker:",
		"monitor resp_m:",
		"on eReq do worker.ack",
		"func worker.ack (params=0 locals=0):",
		"raise",
		"(eAck)",
		"create",
		"send",
		"state Pending (hot):",
	} {
		if !strings.Contains(lst, want) {
			t.Fatalf("listing missing %q:\n%s", want, lst)
		}
	}
}

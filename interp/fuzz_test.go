package interp

import (
	"testing"

	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/lang"
)

// fuzzMaxSteps bounds a fuzzed run: enough for every corpus program to send,
// create and raise, short enough for thousands of runs a second.
const fuzzMaxSteps = 200

// FuzzEngines holds the two engines together beyond the corpus: a program
// the front end accepts runs its first machine identically under the
// tree-walker, the reference, and the bytecode VM (runBoth). It is seeded
// with the 21 corpus sources and the miniature fault programs.
//
//	go test -run '^$' -fuzz FuzzEngines -fuzztime 10s -fuzzminimizetime 2s ./interp
func FuzzEngines(f *testing.F) {
	for _, src := range faultSrcs {
		f.Add(src, uint64(1))
	}
	for _, bm := range benchsrc.All() {
		for _, racy := range []bool{false, true} {
			if racy && !bm.HasRacy {
				continue
			}
			src, err := benchsrc.RawSource(bm.Name, racy)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(src, uint64(1))
		}
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		prog, err := lang.Parse(src)
		if err != nil || lang.Check(prog) != nil || len(prog.Machines) == 0 {
			return
		}
		runBoth(t, prog, prog.Machines[0].Name, seed, fuzzMaxSteps)
	})
}

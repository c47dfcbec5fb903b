package sct

import (
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/splitmix"
	"github.com/psharp-go/psharp/journal"
)

// TestJournalWriterAllocBudget pins the ISSUE's hot-path bound: journaling
// adds at most one allocation per iteration in steady state. The batch
// slice, the campaign's encode buffer and the log's write buffer are all
// reused, so the amortized cost is the occasional map-growth and
// buffer-growth allocation plus a buffered write every flush.
func TestJournalWriterAllocBudget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "alloc")
	c, err := journal.Create(dir, journal.Meta{
		Strategy: "random", Seed: 1, Workers: 1, ShardCount: 1,
	}, journal.Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	opts := Options{Strategy: NewRandom(1), Iterations: 1 << 30, Journal: c}
	workers := []worker{{strategy: opts.Strategy, stride: 1, quota: 1 << 30}}
	sh := newShared(opts, time.Now(), workers)
	jw := newJournalWriter(sh, &workers[0])

	// Warm the reusable buffers past their growth phase.
	completed := 0
	fp := uint64(0)
	iterate := func() {
		completed++
		fp += splitmix.Golden
		jw.note(fp, true, completed)
	}
	for i := 0; i < 4096; i++ {
		iterate()
	}

	allocs := testing.AllocsPerRun(20000, iterate)
	if allocs > 1.0 {
		t.Fatalf("journaling costs %.2f allocs/iteration in steady state, budget is 1", allocs)
	}
	t.Logf("journal steady-state cost: %.3f allocs/iteration", allocs)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDFSCursorBlobRoundTrip: a mid-search frontier, plain, reduced or
// delay-bounded, survives SaveCursor/LoadCursor into a freshly constructed
// strategy byte-for-byte, and into no other. The dfs and dpor blobs are the
// bytes version 2 has always written.
func TestDFSCursorBlobRoundTrip(t *testing.T) {
	id := func(typ string, seq uint64) psharp.MachineID { return psharp.MachineID{Type: typ, Seq: seq} }
	machines := []psharp.MachineID{id("Counter", 1), id("Sender", 2), id("Sender", 3)}
	sent := psharp.StepOp{Machine: id("Sender", 2), Target: id("Counter", 1), Observed: true}
	for _, tc := range []struct {
		name string
		src  tree
		blob string // the cursor's bytes, where they are pinned
	}{
		{"dfs", tree{shard: 1, shards: 3, jumped: true, stack: []node{
			{kind: psharp.DecisionSchedule, options: 3, idx: 1, machines: machines},
			{kind: psharp.DecisionBool, options: 2, idx: 1},
			{kind: psharp.DecisionInt, options: 5, idx: 4},
		}}, "020101030300030107436f756e746572010653656e646572020653656e64657203010201020504"},
		{"delay", tree{delay: true, budget: 2, bound: 1, shard: 1, shards: 3, jumped: true, stack: []node{
			{kind: psharp.DecisionSchedule, options: 3, idx: 1, machines: machines},
			{kind: psharp.DecisionBool, options: 2, idx: 1},
			{kind: psharp.DecisionSchedule, options: 2, idx: 0, machines: machines[1:]},
		}}, ""},
		{"dpor", tree{reduce: true, shard: 1, shards: 3, jumped: true, stack: []node{
			{kind: psharp.DecisionSchedule, options: 3, idx: 1, machines: machines, red: &reduction{
				flags: []uint8{toExplore | explored, toExplore, toExplore},
				done:  []psharp.StepOp{{Machine: id("Counter", 1), Created: id("Sender", 4)}},
				op:    sent,
			}},
			{kind: psharp.DecisionBool, options: 2, idx: 1},
			{kind: psharp.DecisionSchedule, options: 2, idx: 0, machines: machines[1:], red: &reduction{
				flags: []uint8{toExplore, 0},
			}},
		}}, "020501030300030107436f756e746572010653656e646572020653656e646572030301010653656e6465720207436f756e746572010000010107436f756e7465720100000653656e64657204000102010002000653656e646572020653656e6465720301000000000000000000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src
			blob := src.SaveCursor()
			if tc.blob != "" && hex.EncodeToString(blob) != tc.blob {
				t.Fatalf("cursor bytes moved:\n got %x\nwant %s", blob, tc.blob)
			}
			fresh := func(shard int) *tree {
				return &tree{reduce: src.reduce, delay: src.delay, budget: src.budget, shard: shard, shards: 3}
			}

			dst := fresh(1)
			if err := dst.LoadCursor(blob); err != nil {
				t.Fatal(err)
			}
			if got := dst.SaveCursor(); string(got) != string(blob) {
				t.Fatalf("cursor did not round-trip:\n%x\n%x", blob, got)
			}
			if !dst.jumped || dst.exhausted || dst.pos != 0 || dst.bound != src.bound || !reflect.DeepEqual(dst.stack, src.stack) {
				t.Fatalf("state lost: jumped=%t exhausted=%t pos=%d bound=%d stack=%+v", dst.jumped, dst.exhausted, dst.pos, dst.bound, dst.stack)
			}

			if err := fresh(2).LoadCursor(blob); err == nil {
				t.Error("cursor from another shard must be rejected")
			}
			for _, other := range []*tree{
				{reduce: !src.reduce, delay: src.delay, budget: src.budget, shard: 1, shards: 3},
				{reduce: src.reduce, delay: !src.delay, budget: src.budget, shard: 1, shards: 3},
			} {
				says := fmt.Sprintf("partial-order reduction %t and a delay bound %t, this one has them %t and %t", src.reduce, src.delay, other.reduce, other.delay)
				if err := other.LoadCursor(blob); err == nil || !strings.Contains(err.Error(), says) {
					t.Errorf("cursor of the other search must be refused with %q, got %v", says, err)
				}
			}
			if src.delay {
				if err := (&tree{delay: true, budget: src.bound - 1, shard: 1, shards: 3}).LoadCursor(blob); err == nil {
					t.Errorf("cursor at bound %d loaded into a search of budget %d: %v", src.bound, src.bound-1, err)
				}
			}
			if err := fresh(1).LoadCursor([]byte{99}); err == nil || !strings.Contains(err.Error(), "cursor version 99") {
				t.Errorf("unknown cursor version must be rejected as such, got %v", err)
			}
			if err := fresh(1).LoadCursor(append(blob[:len(blob):len(blob)], 0)); err == nil {
				t.Error("cursor with a trailing byte must be rejected")
			}
			for cut := 0; cut < len(blob); cut++ {
				trunc := fresh(1)
				if err := trunc.LoadCursor(blob[:cut]); err == nil {
					t.Fatalf("truncated cursor (%d of %d bytes) loaded", cut, len(blob))
				} else if trunc.stack != nil {
					t.Fatalf("truncated cursor (%d bytes) was refused but left %d nodes behind", cut, len(trunc.stack))
				}
			}
		})
	}
}

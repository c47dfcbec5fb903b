package sct

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
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
	sh := newShared(opts, time.Now(), 1)
	w := worker{strategy: opts.Strategy, stride: 1, quota: 1 << 30}
	jw := newJournalWriter(sh, &w)

	// Warm the reusable buffers past their growth phase.
	completed := 0
	fp := uint64(0)
	iterate := func() {
		completed++
		fp += 0x9e3779b97f4a7c15
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

// TestDFSCursorBlobRoundTrip: a mid-search DFS frontier survives
// SaveCursor/LoadCursor into a freshly constructed DFS byte-for-byte.
func TestDFSCursorBlobRoundTrip(t *testing.T) {
	src := &DFS{
		shard: 1, shards: 3, jumped: true,
		stack: []dfsNode{
			{kind: psharp.DecisionSchedule, options: 3, idx: 1, machines: []psharp.MachineID{
				{Type: "Counter", Seq: 1}, {Type: "Sender", Seq: 2}, {Type: "Sender", Seq: 3},
			}},
			{kind: psharp.DecisionBool, options: 2, idx: 1},
			{kind: psharp.DecisionInt, options: 5, idx: 4},
		},
	}
	blob := src.SaveCursor()

	dst := &DFS{shard: 1, shards: 3}
	if err := dst.LoadCursor(blob); err != nil {
		t.Fatal(err)
	}
	if got := dst.SaveCursor(); string(got) != string(blob) {
		t.Fatalf("cursor did not round-trip:\n%x\n%x", blob, got)
	}
	if !dst.jumped || dst.exhausted || dst.pos != 0 {
		t.Fatalf("flags lost: jumped=%t exhausted=%t pos=%d", dst.jumped, dst.exhausted, dst.pos)
	}

	wrongShard := &DFS{shard: 2, shards: 3}
	if err := wrongShard.LoadCursor(blob); err == nil {
		t.Fatal("cursor from another shard must be rejected")
	}
	if err := NewDFS().LoadCursor([]byte{99}); err == nil {
		t.Fatal("unknown cursor version must be rejected")
	}
	for cut := 0; cut < len(blob); cut++ {
		trunc := &DFS{shard: 1, shards: 3}
		if err := trunc.LoadCursor(blob[:cut]); err == nil && cut > 0 {
			// Some prefixes decode cleanly (e.g. a shorter but complete
			// stack); what matters is no panic and no silent half-load.
			if len(trunc.stack) == len(src.stack) {
				t.Fatalf("truncated cursor (%d bytes) loaded a full stack", cut)
			}
		}
	}
}

package journal

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// dfsStyleCursor is a cursor blob laid out the way the depth-first search
// saves one: version, flags, shard, shard count, then a stack of depth
// scheduling nodes, each with its option count, chosen branch and enabled
// machines.
func dfsStyleCursor(depth int) []byte {
	buf := []byte{2, 0}
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(depth))
	for i := 0; i < depth; i++ {
		options := 1 + i%3
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(options))
		buf = binary.AppendUvarint(buf, uint64(i%options))
		for m := 1; m <= options; m++ {
			buf = binary.AppendUvarint(buf, uint64(len("Participant")))
			buf = append(buf, "Participant"...)
			buf = binary.AppendUvarint(buf, uint64(m))
		}
	}
	return buf
}

// journalSequence journals into c the advances TestCompactionPreservesState
// makes — 200 that each find a fingerprint, then more that find none,
// alternating workers 0 and 1 — 700 in all, with worker 1 carrying a
// depth-first cursor blob, a telemetry checkpoint one second apart at each
// of the first checkpoints advances, then a counters record with every
// field set and a forced final checkpoint. after runs after every call.
func journalSequence(c *Campaign, checkpoints int, after func()) {
	for i := 1; i <= 700; i++ {
		var fps []uint64
		if i <= 200 {
			fps = []uint64{uint64(i) * 0x9e3779b97f4a7c15}
		}
		var blob []byte
		if i%2 == 1 {
			blob = dfsStyleCursor(i % 17)
		}
		c.Advance(i%2, i, blob, fps)
		after()
		if i <= checkpoints {
			c.Checkpoint(Checkpoint{ElapsedMicros: int64(i) * 1e6, Iterations: int64(i),
				DistinctSchedules: int64(min(i, 200)), CoveredTransitions: int64(i / 3)}, false)
			after()
		}
	}
	var ct Counters
	for i, s := range ct.slots() {
		*s.v = int64(1000 + i)
	}
	c.SaveCounters(ct)
	after()
	c.Checkpoint(Checkpoint{ElapsedMicros: 701e6, Iterations: 700, DistinctSchedules: 200, CoveredTransitions: 233}, true)
	after()
}

// campaignView is everything a resumed handle reports: the fingerprint set
// (sorted), every worker's cursor, the counters and the checkpoints.
type campaignView struct {
	Fingerprints []uint64
	Cursors      map[int]cursorView
	Counters     Counters
	Checkpoints  []Checkpoint
}

type cursorView struct {
	Completed int
	Blob      []byte
}

func resumeView(t *testing.T, dir string) campaignView {
	t.Helper()
	r, err := Resume(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	v := campaignView{
		Fingerprints: slices.Sorted(slices.Values(r.Fingerprints())),
		Cursors:      map[int]cursorView{},
		Counters:     r.Counters(),
		Checkpoints:  r.Checkpoints(),
	}
	for w := 0; w < 4; w++ {
		if done, blob, ok := r.Cursor(w); ok {
			v.Cursors[w] = cursorView{Completed: done, Blob: blob}
		}
	}
	return v
}

// TestCompactedFixtureFromParent: testdata/compacted is a campaign directory
// written by journalSequence(c, 300, …) with the build before compaction
// became a filter over the file, when the handle rewrote the shard from its
// own sorted copy of every fingerprint (once there, at the 506th advance,
// thinning 300 checkpoints to 150); state.json is what that build read back
// from it. This build must read the same from that file and from its own run
// of the sequence.
func TestCompactedFixtureFromParent(t *testing.T) {
	src := filepath.Join("testdata", "compacted")
	data, err := os.ReadFile(filepath.Join(src, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want campaignView
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{ManifestName, ShardFileName(0, 1)} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := resumeView(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("the recorded shard reads back as\n%+v\nthe build that wrote it read\n%+v", got, want)
	}

	fresh := filepath.Join(t.TempDir(), "camp")
	c, err := Create(fresh, testMeta(), Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	journalSequence(c, 300, func() {})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := resumeView(t, fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("the sequence journaled by this build reads back as\n%+v\nthe recorded build read\n%+v", got, want)
	}
}

// TestCompactionIsAFilter: a shard compacted as it goes reads back exactly
// as the same calls do with compaction out of reach (the handle's dead-record
// count zeroed after every call). The compacted file holds the other's
// fingerprint records verbatim and in order, every one of them before the
// first cursor record: the order that lets a torn tail lose a cursor advance
// but never a fingerprint that a surviving cursor counts.
func TestCompactionIsAFilter(t *testing.T) {
	run := func(compact bool) (string, []Record) {
		dir := filepath.Join(t.TempDir(), "camp")
		c, err := Create(dir, testMeta(), Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		after := func() {}
		if !compact {
			after = func() {
				c.mu.Lock()
				c.dead = 0
				c.mu.Unlock()
			}
		}
		journalSequence(c, 20, after)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		records, _, err := RecoverFile(filepath.Join(dir, ShardFileName(0, 1)))
		if err != nil {
			t.Fatal(err)
		}
		return dir, records
	}
	compacted, got := run(true)
	plain, want := run(false)
	if appended := 1 + 200 + 700 + 20 + 2; len(want) != appended {
		t.Fatalf("with compaction out of reach the file holds %d records, want all %d appended", len(want), appended)
	}
	if len(got) > len(want)/2 {
		t.Fatalf("the compacted file holds %d of %d records: compaction never fired", len(got), len(want))
	}
	if a, b := resumeView(t, compacted), resumeView(t, plain); !reflect.DeepEqual(a, b) {
		t.Fatalf("compacted shard reads back as\n%+v\nuncompacted as\n%+v", a, b)
	}
	fingerprintRecords := func(records []Record) (fps []Record) {
		for _, r := range records {
			if r.Kind == recFingerprints {
				fps = append(fps, r)
			}
		}
		return fps
	}
	sameRecords(t, fingerprintRecords(got), fingerprintRecords(want))
	firstCursor := slices.IndexFunc(got, func(r Record) bool { return r.Kind == recCursor })
	for i, r := range got[firstCursor:] {
		if r.Kind == recFingerprints {
			t.Fatalf("fingerprint record %d of the compacted file follows its first cursor record %d", firstCursor+i, firstCursor)
		}
	}
}

// TestAdvanceKeepsNoFingerprints: a handle does not hold the fingerprints it
// journals (the engine's own set does, and compaction copies them from the
// file), so 2^20 new ones grow the heap by the log's write buffer, about a
// byte each, not by 2^20 set entries (37 B each when it kept a copy).
func TestAdvanceKeepsNoFingerprints(t *testing.T) {
	c, err := Create(filepath.Join(t.TempDir(), "camp"), testMeta(), Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 1 << 20
	batch := make([]uint64, 64)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i += len(batch) {
		for j := range batch {
			batch[j] = uint64(i+j) * 0x9e3779b97f4a7c15
		}
		c.Advance(0, i+len(batch), nil, batch)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perFP := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	if perFP > 4 {
		t.Fatalf("journaling %d fingerprints grew the heap by %.1f B each, want at most 4", n, perFP)
	}
	t.Logf("heap growth %.2f B per journaled fingerprint", perFP)
}

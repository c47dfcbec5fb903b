package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testMeta() Meta {
	return Meta{
		Benchmark: "FanIn", Strategy: "random", Seed: 42,
		Workers: 2, ShardIndex: 0, ShardCount: 1, MaxSteps: 100,
	}
}

func TestCampaignCreateResumeRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := Create(dir, testMeta(), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Resumed() {
		t.Fatal("fresh campaign reports Resumed")
	}
	c.Advance(0, 10, nil, []uint64{101, 102, 103})
	c.Advance(1, 7, []byte("dfs-blob"), []uint64{201})
	c.Advance(0, 20, nil, []uint64{104}) // supersedes worker 0's cursor
	ct := Counters{Iterations: 37, BuggyIterations: 4, MaxSchedulingPoints: 19, ElapsedMicros: 1500}
	c.SaveCounters(ct)
	c.Checkpoint(Checkpoint{ElapsedMicros: 1500, Iterations: 37, DistinctSchedules: 5}, true)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The manifest went through a fsynced temp file, renamed into place.
	if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(litter) != 0 {
		t.Fatalf("Create left temp files: %v", litter)
	}
	if fi, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("manifest: %v, %v; want a 0644 file", fi, err)
	}

	r, err := Resume(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Resumed() {
		t.Fatal("resumed campaign reports fresh")
	}
	fps := map[uint64]bool{}
	for _, fp := range r.Fingerprints() {
		fps[fp] = true
	}
	for _, want := range []uint64{101, 102, 103, 104, 201} {
		if !fps[want] {
			t.Fatalf("fingerprint %d lost across resume", want)
		}
	}
	if len(fps) != 5 {
		t.Fatalf("recovered %d fingerprints, want 5", len(fps))
	}
	if done, blob, ok := r.Cursor(0); !ok || done != 20 || blob != nil {
		t.Fatalf("worker 0 cursor = (%d, %q, %t), want (20, nil, true)", done, blob, ok)
	}
	if done, blob, ok := r.Cursor(1); !ok || done != 7 || string(blob) != "dfs-blob" {
		t.Fatalf("worker 1 cursor = (%d, %q, %t), want (7, dfs-blob, true)", done, blob, ok)
	}
	if _, _, ok := r.Cursor(2); ok {
		t.Fatal("phantom cursor for worker 2")
	}
	if got := r.Counters(); got != ct {
		t.Fatalf("counters = %+v, want %+v", got, ct)
	}
	cps := r.Checkpoints()
	if len(cps) != 1 || cps[0].Iterations != 37 {
		t.Fatalf("checkpoints = %+v, want one with Iterations 37", cps)
	}
}

func TestCampaignCreateRefusesExistingShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := Create(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	_, err = Create(dir, testMeta(), Options{})
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("re-Create must point at -resume, got %v", err)
	}
}

func TestResumeWithoutManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "empty")
	if _, err := Resume(dir, testMeta(), Options{}); err == nil || !strings.Contains(err.Error(), "nothing to resume") {
		t.Fatalf("got %v, want 'nothing to resume'", err)
	}
}

func TestResumeRejectsMismatchedMeta(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := Create(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	for _, tc := range []struct {
		name   string
		mutate func(*Meta)
	}{
		{"seed", func(m *Meta) { m.Seed = 43 }},
		{"strategy", func(m *Meta) { m.Strategy = "pct" }},
		{"workers", func(m *Meta) { m.Workers = 4 }},
		{"max steps", func(m *Meta) { m.MaxSteps = 999 }},
		{"fault budget", func(m *Meta) { m.FaultBudget = 2 }},
		{"extra", func(m *Meta) { m.Extra = "monitors=true" }},
	} {
		m := testMeta()
		tc.mutate(&m)
		if _, err := Resume(dir, m, Options{}); err == nil || !strings.Contains(err.Error(), "different campaign") {
			t.Fatalf("%s change: got %v, want 'different campaign' rejection", tc.name, err)
		}
	}
	// The iteration budget is deliberately NOT part of the identity, so no
	// mismatch case for it exists: budget-split resumes are the feature.
}

// TestResumeGrowsBudget exercises the exact resume contract psharp-test
// relies on: the same Meta with more iterations to run is accepted.
func TestResumeGrowsBudget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := Create(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(0, 50, nil, []uint64{1, 2, 3})
	c.Close()
	r, err := Resume(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if done, _, _ := r.Cursor(0); done != 50 {
		t.Fatalf("cursor = %d, want 50", done)
	}
}

func TestCompactionPreservesState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := Create(dir, testMeta(), Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wantFPs []uint64
	for i := 1; i <= 200; i++ {
		fp := uint64(i) * 0x9e3779b97f4a7c15
		wantFPs = append(wantFPs, fp)
		c.Advance(i%2, i, nil, []uint64{fp})
	}
	// Cursor advances that find nothing new supersede one another: by the
	// time the file holds compactMinRecords records, more than compactRatio
	// of them are dead.
	for i := 201; i <= 500; i++ {
		c.Advance(i%2, i, nil, nil)
	}
	c.SaveCounters(Counters{Iterations: 500})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// 500 appended cursor records, two of them live: compaction must have
	// dropped most of the rest (it keeps every fingerprint record).
	records, _, err := RecoverFile(filepath.Join(dir, ShardFileName(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	cursors := 0
	for _, r := range records {
		if r.Kind == recCursor {
			cursors++
		}
	}
	if cursors > 250 {
		t.Fatalf("file holds %d cursor records after 500 appends; compaction never fired", cursors)
	}

	r, err := Resume(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fps := map[uint64]bool{}
	for _, fp := range r.Fingerprints() {
		fps[fp] = true
	}
	for _, fp := range wantFPs {
		if !fps[fp] {
			t.Fatalf("fingerprint %x lost in compaction", fp)
		}
	}
	if done, _, _ := r.Cursor(0); done != 500 {
		t.Fatalf("worker 0 cursor = %d, want 500", done)
	}
	if done, _, _ := r.Cursor(1); done != 499 {
		t.Fatalf("worker 1 cursor = %d, want 499", done)
	}
	if r.Counters().Iterations != 500 {
		t.Fatalf("counters lost in compaction: %+v", r.Counters())
	}
}

func TestCheckpointRateLimit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := Create(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for us := int64(0); us < 5_000_000; us += 100_000 { // every 100ms for 5s
		c.Checkpoint(Checkpoint{ElapsedMicros: us}, false)
	}
	c.Checkpoint(Checkpoint{ElapsedMicros: 5_000_001}, true) // forced final
	got := len(c.Checkpoints())
	if got < 5 || got > 7 {
		t.Fatalf("%d checkpoints from 50 offers over 5s at 1/s, want ~6", got)
	}
}

func TestShardPeersAndReadState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	meta0 := testMeta()
	meta0.ShardCount = 2
	c0, err := Create(dir, meta0, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c0.Advance(0, 5, nil, []uint64{1, 2, 3})
	c0.SaveCounters(Counters{Iterations: 5, BuggyIterations: 1, MaxSchedulingPoints: 9, PrunedIterations: 2, ElapsedMicros: 70})
	if err := c0.Close(); err != nil {
		t.Fatal(err)
	}

	// Shard 1 starts later and must see shard 0's fingerprints read-only.
	meta1 := meta0
	meta1.ShardIndex = 1
	c1, err := Create(dir, meta1, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	fps := map[uint64]bool{}
	for _, fp := range c1.Fingerprints() {
		fps[fp] = true
	}
	if !fps[1] || !fps[2] || !fps[3] {
		t.Fatalf("shard 1 did not preload shard 0's fingerprints: %v", c1.Fingerprints())
	}
	c1.Advance(2, 4, nil, []uint64{3, 4}) // fp 3 overlaps shard 0
	c1.SaveCounters(Counters{Iterations: 4, MaxSchedulingPoints: 12, PrunedIterations: 3, ElapsedMicros: 50})
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := ReadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.ShardsPresent != 2 {
		t.Fatalf("shards = %d/%d, want 2/2", st.ShardsPresent, st.Shards)
	}
	if st.DistinctSchedules != 4 { // {1,2,3,4}: the union, not the sum
		t.Fatalf("merged distinct = %d, want 4", st.DistinctSchedules)
	}
	if st.Counters.Iterations != 9 || st.Counters.BuggyIterations != 1 || st.Counters.PrunedIterations != 5 {
		t.Fatalf("summed counters = %+v", st.Counters)
	}
	// Maxima across shards, not sums: the shards ran side by side.
	if st.Counters.MaxSchedulingPoints != 12 || st.Counters.ElapsedMicros != 70 {
		t.Fatalf("max SP = %d, elapsed = %d, want 12 and 70", st.Counters.MaxSchedulingPoints, st.Counters.ElapsedMicros)
	}
}

// TestCountersRecord: every field of Counters is in the one slot list that
// the record's encoding, its decoding and Merge walk, and a record written
// before the list grew past twelve values still decodes, the rest as 0.
func TestCountersRecord(t *testing.T) {
	var full Counters
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	record := encodeCounters(nil, full)
	if len(record) != v.NumField() { // one-byte uvarints
		t.Fatalf("record holds %d values for %d fields", len(record), v.NumField())
	}
	if got, err := decodeCounters(record); err != nil || got != full {
		t.Fatalf("decode(encode) = %+v, %v; want %+v", got, err, full)
	}
	var merged Counters
	merged.Merge(full)
	if merged != full {
		t.Fatalf("Merge into a zero record = %+v, want %+v", merged, full)
	}
	merged.Merge(full)
	if merged.Iterations != 2*full.Iterations || merged.MaxMachines != full.MaxMachines {
		t.Fatalf("Merge summed a maximum or kept a sum: %+v", merged)
	}

	legacy, err := decodeCounters(record[:legacyCounterSlots])
	if err != nil {
		t.Fatalf("a twelve-value record no longer decodes: %v", err)
	}
	want := full
	want.PrunedIterations, want.PrunedPoints, want.ReplayedPoints = 0, 0, 0
	want.RestoredPoints, want.ContinuedPoints = 0, 0
	if legacy != want {
		t.Fatalf("twelve-value record = %+v, want %+v", legacy, want)
	}
	if _, err := decodeCounters(record[:legacyCounterSlots-1]); err == nil {
		t.Fatal("an eleven-value record decoded")
	}
}

func TestShardCountMismatchRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	meta := testMeta()
	meta.ShardCount = 2
	c, err := Create(dir, meta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	solo := testMeta() // ShardCount 1
	if _, err := Create(dir, solo, Options{}); err == nil {
		t.Fatal("shard-count change must be rejected by the manifest")
	}
}

// TestResumeAfterKillAtRandomOffset simulates SIGKILL at arbitrary byte
// positions: any prefix of a valid shard file must resume cleanly, with the
// recovered fingerprints a subset of what was journaled and the cursor at
// some previously journaled position — never ahead of it.
func TestResumeAfterKillAtRandomOffset(t *testing.T) {
	src := filepath.Join(t.TempDir(), "camp")
	c, err := Create(src, testMeta(), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[uint64]bool{}
	for i := 1; i <= 60; i++ {
		fp := uint64(i) * 0x2545f4914f6cdd1d
		journaled[fp] = true
		c.Advance(i%2, i, nil, []uint64{fp})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	shard := ShardFileName(0, 1)
	full, err := os.ReadFile(filepath.Join(src, shard))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(src, ManifestName))
	if err != nil {
		t.Fatal(err)
	}

	// The meta record must survive the cut for the shard to be resumable at
	// all (losing it means the journal restarts empty, a case the engine
	// handles by recreating — not what this test probes).
	metaLen := int(binary.LittleEndian.Uint32(full[headerLen+1 : headerLen+5]))
	metaEnd := headerLen + 5 + metaLen + 8

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		cut := metaEnd + rng.Intn(len(full)-metaEnd)
		dir := filepath.Join(t.TempDir(), "killed")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shard), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := Resume(dir, testMeta(), Options{})
		if err != nil {
			t.Fatalf("cut at %d: resume failed: %v", cut, err)
		}
		maxCursor := 0
		for _, w := range []int{0, 1} {
			if done, _, ok := r.Cursor(w); ok && done > maxCursor {
				maxCursor = done
			}
		}
		for _, fp := range r.Fingerprints() {
			if !journaled[fp] {
				t.Fatalf("cut at %d: phantom fingerprint %x", cut, fp)
			}
		}
		// The flush ordering invariant: fingerprints land before the cursor
		// advance, so the cursor can never claim iterations whose
		// fingerprints were lost. Cursor trails or matches the fingerprint
		// count (each iteration journaled exactly one fingerprint).
		if maxCursor > len(r.Fingerprints()) {
			t.Fatalf("cut at %d: cursor %d ahead of %d recovered fingerprints — resume would skip unjournaled work",
				cut, maxCursor, len(r.Fingerprints()))
		}
		r.Close()
	}
}

// TestResumeTornAtBirth covers the extreme torn tail: the process died
// before its first flush, so the shard's journal on disk is empty, a
// partial header, a bare header, or a header plus a torn meta record —
// nothing durable ever landed. Resume must re-seed the shard as fresh
// (the manifest still pins the campaign identity) rather than refuse the
// whole campaign, and the re-seeded shard must be fully usable.
func TestResumeTornAtBirth(t *testing.T) {
	src := filepath.Join(t.TempDir(), "camp")
	c, err := Create(src, testMeta(), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(0, 1, nil, []uint64{0xfeed})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	shard := ShardFileName(0, 1)
	full, err := os.ReadFile(filepath.Join(src, shard))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(src, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	metaLen := int(binary.LittleEndian.Uint32(full[headerLen+1 : headerLen+5]))
	metaEnd := headerLen + 5 + metaLen + 8

	for _, cut := range []int{0, 7, headerLen, headerLen + 3, metaEnd - 1} {
		dir := filepath.Join(t.TempDir(), "torn")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shard), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := Resume(dir, testMeta(), Options{SyncEvery: 1})
		if err != nil {
			t.Fatalf("cut at %d: resume refused a torn-at-birth shard: %v", cut, err)
		}
		if r.Resumed() {
			t.Fatalf("cut at %d: nothing was recovered, yet Resumed() = true", cut)
		}
		if n := len(r.Fingerprints()); n != 0 {
			t.Fatalf("cut at %d: %d phantom fingerprints on a torn-at-birth shard", cut, n)
		}
		if _, _, ok := r.Cursor(0); ok {
			t.Fatalf("cut at %d: phantom cursor on a torn-at-birth shard", cut)
		}

		// The re-seeded shard works: journal some state and resume again.
		r.Advance(0, 2, nil, []uint64{0xbeef, 0xcafe})
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := Resume(dir, testMeta(), Options{})
		if err != nil {
			t.Fatalf("cut at %d: second resume: %v", cut, err)
		}
		if !r2.Resumed() {
			t.Fatalf("cut at %d: second resume not marked resumed", cut)
		}
		if n := len(r2.Fingerprints()); n != 2 {
			t.Fatalf("cut at %d: recovered %d fingerprints after re-seed, want 2", cut, n)
		}
		r2.Close()
	}
}

// TestResumeRefusesVersion1Campaign hands Resume the directory a version-1
// build left behind. Its fingerprints were made by that build's hash of a
// trace; a schedule this build explores again would hash differently and be
// counted as new, so the campaign must be refused, not resumed — whether
// the version is read from the manifest or, the manifest lost and rewritten
// by hand, from the shard's own header.
func TestResumeRefusesVersion1Campaign(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := Create(dir, testMeta(), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(0, 3, nil, []uint64{0xa, 0xb, 0xc})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	manifest, shard := filepath.Join(dir, ManifestName), filepath.Join(dir, ShardFileName(0, 1))
	current, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(current, []byte(`"format": 2`), []byte(`"format": 1`), 1)
	if bytes.Equal(old, current) {
		t.Fatalf("manifest does not record format 2:\n%s", current)
	}
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], 1)
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		manifest []byte
		path     string
	}{
		{"version-1 manifest", old, manifest},
		{"version-1 shard under a rewritten manifest", current, shard},
	} {
		if err := os.WriteFile(manifest, tc.manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Resume(dir, testMeta(), Options{})
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Version != 1 || ve.Path != tc.path {
			t.Errorf("%s: Resume returned %v, want a *VersionError naming version 1 of %s", tc.name, err, tc.path)
		}
		if _, err := ReadState(dir); !errors.As(err, &ve) || ve.Version != 1 {
			t.Errorf("%s: ReadState returned %v, want a *VersionError naming version 1", tc.name, err)
		}
	}
}

package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// badShards are images of shard 1 of 2 of testMeta's campaign that no build
// of this package writes, each well framed: a 12-byte fingerprint record, a
// newest counters record cut short, a record of unknown kind, and a meta
// record naming another benchmark.
func badShards() map[string][]byte {
	meta := testMeta()
	meta.ShardIndex, meta.ShardCount = 1, 2
	image := func(m Meta, records ...Record) []byte {
		mp, err := json.Marshal(m)
		if err != nil {
			panic(err)
		}
		return encodeFile(Version, append([]Record{{Kind: recMeta, Payload: mp}}, records...))
	}
	fps := Record{Kind: recFingerprints, Payload: binary.LittleEndian.AppendUint64(nil, 7)}
	counters := func(iterations int64) []byte { return encodeCounters(nil, Counters{Iterations: iterations}) }
	foreign := meta
	foreign.Benchmark = "Raft"
	return map[string][]byte{
		"12-byte fingerprint record": image(meta, fps, Record{Kind: recFingerprints, Payload: make([]byte, 12)}),
		"truncated newest counters": image(meta, fps, Record{Kind: recCounters, Payload: counters(1)},
			Record{Kind: recCounters, Payload: counters(2)[:legacyCounterSlots-1]}),
		"unknown record kind": image(meta, fps, Record{Kind: 9, Payload: []byte{1}}),
		"another benchmark":   image(foreign, fps),
	}
}

// TestBadShardIsAnError: a shard this package did not write is an error
// wherever it is read — by ReadState, by Create or Resume of its peer, and by
// Resume of itself — never merged as if its bad records were absent.
func TestBadShardIsAnError(t *testing.T) {
	meta0 := testMeta()
	meta0.ShardCount = 2
	meta1 := meta0
	meta1.ShardIndex = 1
	for name, image := range badShards() {
		dir := filepath.Join(t.TempDir(), "camp")
		c, err := Create(dir, meta0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.Advance(0, 1, nil, []uint64{1})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ShardFileName(1, 2)), image, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		wantCorrupt := name != "another benchmark"
		if _, err := ReadState(dir); err == nil || wantCorrupt != errors.As(err, &ce) {
			t.Errorf("%s: ReadState returned %v", name, err)
		}
		for _, m := range []Meta{meta0, meta1} {
			if c, err := Resume(dir, m, Options{}); err == nil || wantCorrupt != errors.As(err, &ce) {
				t.Errorf("%s: Resume of shard %d returned %v", name, m.ShardIndex, err)
				if err == nil {
					c.Close()
				}
			}
		}
		if err := os.Remove(filepath.Join(dir, ShardFileName(0, 2))); err != nil {
			t.Fatal(err)
		}
		if c, err := Create(dir, meta0, Options{}); err == nil || wantCorrupt != errors.As(err, &ce) {
			t.Errorf("%s: Create of its peer returned %v", name, err)
			if err == nil {
				c.Close()
			}
		}
		if _, err := os.Stat(filepath.Join(dir, ShardFileName(0, 2))); !os.IsNotExist(err) {
			t.Errorf("%s: the refused Create left a shard file behind (%v)", name, err)
		}
	}
}

// script reads a fuzz input as the arguments of campaign calls; once the
// bytes run out every value reads as zero.
type script []byte

func (s *script) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *script) uvarint() uint64 {
	v, n := binary.Uvarint(*s)
	if n <= 0 {
		*s = nil
		return 0
	}
	*s = (*s)[n:]
	return v
}

func (s *script) bytes() []byte {
	n := min(int(s.byte()), len(*s))
	b := (*s)[:n]
	*s = (*s)[n:]
	return b
}

// FuzzReadShard: readShard, given a valid header and meta record followed by
// any bytes, returns a state or an error and never panics. The same bytes,
// read as a script of at most 200 Advance / SaveCounters / Checkpoint calls
// (too few records for compaction), must read back from the file exactly as
// written, and the live handle must report the same.
func FuzzReadShard(f *testing.F) {
	meta := testMeta()
	meta.ShardIndex, meta.ShardCount = 1, 2
	mp, err := json.Marshal(meta)
	if err != nil {
		f.Fatal(err)
	}
	prefix := encodeFile(Version, []Record{{Kind: recMeta, Payload: mp}})
	for _, image := range badShards() {
		if tail, ok := bytes.CutPrefix(image, prefix); ok {
			f.Add(tail)
		} else {
			f.Add(image[headerLen:])
		}
	}
	f.Add([]byte{0, 1, 5, 3, 'a', 'b', 'c', 2, 7, 9, 1, 1, 2, 3, 2, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, tail []byte) {
		if records, _, err := recover_("fuzz", append(prefix[:len(prefix):len(prefix)], tail...)); err == nil {
			readShard("fuzz", records, meta, func(uint64) {})
		}

		dir := t.TempDir()
		c, err := Create(dir, meta, Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		want := shard{cursors: map[int]cursorState{}}
		var wantFPs []uint64
		for s, calls := script(tail), 0; len(s) > 0 && calls < 200; calls++ {
			switch s.byte() % 3 {
			case 0:
				worker, completed, blob := int(s.byte()%4), int(s.uvarint()), s.bytes()
				fps := make([]uint64, s.byte()%4)
				for i := range fps {
					fps[i] = s.uvarint()
				}
				c.Advance(worker, completed, blob, fps)
				wantFPs = append(wantFPs, fps...)
				want.cursors[worker] = cursorState{completed: completed, blob: bytes.Clone(blob)}
			case 1:
				var ct Counters
				for _, slot := range ct.slots() {
					*slot.v = int64(s.uvarint())
				}
				c.SaveCounters(ct)
				want.counters = ct
			case 2:
				var cp Checkpoint
				for _, v := range cp.fields() {
					*v = int64(s.uvarint())
				}
				c.Checkpoint(cp, true)
				want.checkpoints = append(want.checkpoints, cp)
			}
		}
		same := func(who string, got shard) {
			if len(got.cursors) != len(want.cursors) {
				t.Fatalf("%s: %d cursors, want %d", who, len(got.cursors), len(want.cursors))
			}
			for w, cs := range want.cursors {
				if g := got.cursors[w]; g.completed != cs.completed || !bytes.Equal(g.blob, cs.blob) {
					t.Fatalf("%s: worker %d cursor (%d, %x), want (%d, %x)", who, w, g.completed, g.blob, cs.completed, cs.blob)
				}
			}
			if got.counters != want.counters {
				t.Fatalf("%s: counters %+v, want %+v", who, got.counters, want.counters)
			}
			if !slices.Equal(got.checkpoints, want.checkpoints) {
				t.Fatalf("%s: checkpoints %+v, want %+v", who, got.checkpoints, want.checkpoints)
			}
		}
		c.mu.Lock()
		same("live handle", c.shard)
		c.mu.Unlock()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, ShardFileName(1, 2))
		records, _, err := RecoverFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var gotFPs []uint64
		got, err := readShard(path, records, meta, func(fp uint64) { gotFPs = append(gotFPs, fp) })
		if err != nil {
			t.Fatal(err)
		}
		same("file", got)
		if !slices.Equal(gotFPs, wantFPs) {
			t.Fatalf("file holds fingerprints %x, want %x", gotFPs, wantFPs)
		}
	})
}

package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// encodeRecord frames one record exactly as Log.Append does, so tests can
// assemble journal images byte by byte.
func encodeRecord(kind byte, payload []byte) []byte { return appendRecord(nil, kind, payload) }

func encodeHeader(version uint32) []byte {
	var hdr [headerLen]byte
	copy(hdr[:], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	return hdr[:]
}

// sampleRecords is a small varied record stream: empty payload, short
// payloads, and one spanning a few hundred bytes.
func sampleRecords() []Record {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i * 7)
	}
	return []Record{
		{Kind: 1, Payload: []byte(`{"meta":true}`)},
		{Kind: 2, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: 3, Payload: nil},
		{Kind: 4, Payload: long},
		{Kind: 5, Payload: []byte{0xff}},
	}
}

func encodeFile(version uint32, records []Record) []byte {
	data := encodeHeader(version)
	for _, r := range records {
		data = append(data, encodeRecord(r.Kind, r.Payload)...)
	}
	return data
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind {
			t.Fatalf("record %d: kind %d, want %d", i, got[i].Kind, want[i].Kind)
		}
		if string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("record %d: payload %x, want %x", i, got[i].Payload, want[i].Payload)
		}
	}
}

func TestLogAppendRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.journal")
	l, err := CreateLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, end, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, want)
	if fi, _ := os.Stat(path); fi.Size() != end {
		t.Fatalf("valid prefix ends at %d but file is %d bytes", end, fi.Size())
	}

	// Reopen for appending and add one more record.
	l2, got2, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got2, want)
	if err := l2.Append(9, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got3, _, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got3, append(want, Record{Kind: 9, Payload: []byte("tail")}))
}

func TestCreateLogRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.journal")
	l, err := CreateLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := CreateLog(path, 0); err == nil {
		t.Fatal("CreateLog over an existing journal must fail")
	}
}

// TestTornTailEveryPrefix is the core recovery property: for EVERY byte
// prefix of a valid journal — every possible torn-write point — recovery
// must succeed and yield exactly the records whose frames fit entirely in
// the prefix. No prefix may be classified as corruption.
func TestTornTailEveryPrefix(t *testing.T) {
	want := sampleRecords()
	full := encodeFile(Version, want)

	// recordEnds[i] = offset at which record i's frame ends.
	ends := make([]int, len(want))
	off := headerLen
	for i, r := range want {
		off += 5 + len(r.Payload) + 8
		ends[i] = off
	}

	for k := 0; k <= len(full); k++ {
		got, end, err := recover_("prefix", full[:k])
		if err != nil {
			t.Fatalf("prefix %d: unexpected error %v", k, err)
		}
		complete := 0
		for complete < len(ends) && ends[complete] <= k {
			complete++
		}
		sameRecords(t, got, want[:complete])
		wantEnd := int64(headerLen)
		if k < headerLen {
			wantEnd = 0
		}
		if complete > 0 {
			wantEnd = int64(ends[complete-1])
		}
		if end != wantEnd {
			t.Fatalf("prefix %d: valid end %d, want %d", k, end, wantEnd)
		}
	}
}

// TestOpenLogTruncatesTornTail writes a torn tail on disk and checks
// OpenLog both recovers the valid prefix and physically truncates the file
// so subsequent appends extend a clean journal.
func TestOpenLogTruncatesTornTail(t *testing.T) {
	want := sampleRecords()
	full := encodeFile(Version, want)
	path := filepath.Join(t.TempDir(), "torn.journal")
	// Cut the last record in half.
	cut := len(full) - (5+len(want[len(want)-1].Payload)+8)/2
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	l, got, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, want[:len(want)-1])
	if err := l.Append(7, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got2, append(want[:len(want)-1], Record{Kind: 7, Payload: []byte("after")}))
}

// TestOpenLogRewritesTornHeader covers a crash between create and the first
// header sync: a file shorter than the header restarts as a fresh journal.
func TestOpenLogRewritesTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdr.journal")
	if err := os.WriteFile(path, magic[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("torn header recovered %d records, want 0", len(got))
	}
	if err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got2, []Record{{Kind: 1, Payload: []byte("x")}})
}

func TestMidFileChecksumFlipFailsLoudly(t *testing.T) {
	want := sampleRecords()
	full := encodeFile(Version, want)
	// Flip one payload byte of the SECOND record: valid data follows, so
	// this must be loud corruption, never a silent truncation.
	off := headerLen + 5 + len(want[0].Payload) + 8 // start of record 1
	full[off+5+2] ^= 0x01                           // a payload byte of record 1

	_, _, err := recover_("flip", full)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError", err)
	}
	if ce.Offset != int64(off) {
		t.Fatalf("corruption reported at offset %d, want %d", ce.Offset, off)
	}
}

func TestFinalRecordChecksumFlipIsTornTail(t *testing.T) {
	want := sampleRecords()
	full := encodeFile(Version, want)
	// Flip a byte of the LAST record's checksum: indistinguishable from a
	// torn append, so it truncates instead of failing.
	full[len(full)-1] ^= 0x80

	got, _, err := recover_("tail-flip", full)
	if err != nil {
		t.Fatalf("final-record flip must recover, got %v", err)
	}
	sameRecords(t, got, want[:len(want)-1])
}

func TestOversizedLengthFailsLoudly(t *testing.T) {
	data := encodeHeader(Version)
	data = append(data, 1)
	data = binary.LittleEndian.AppendUint32(data, MaxPayload+1)
	data = append(data, make([]byte, 64)...)

	_, _, err := recover_("huge", data)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError for oversized length", err)
	}
}

func TestUnknownVersionFailsLoudly(t *testing.T) {
	data := encodeFile(99, sampleRecords())
	_, _, err := recover_("v99", data)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	if ve.Version != 99 {
		t.Fatalf("reported version %d, want 99", ve.Version)
	}
}

func TestNotAJournal(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("definitely not a journal file, much longer than the header"),
		[]byte("PX"), // shorter than the magic and not a prefix of it
		[]byte("{}"), // JSON masquerading
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, _, err := recover_("alien", data); !errors.Is(err, ErrNotJournal) {
			t.Fatalf("%q: got %v, want ErrNotJournal", data, err)
		}
	}
}

func TestRewriteReplacesContents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.journal")
	l, err := CreateLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := l.Append(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := []Record{{Kind: 1, Payload: []byte("meta")}, {Kind: 2, Payload: []byte("kept")}}
	if err := l.Rewrite(want); err != nil {
		t.Fatal(err)
	}
	// The log must remain appendable after the rename dance.
	if err := l.Append(3, []byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, append(want, Record{Kind: 3, Payload: []byte("post")}))
	// No temp litter left behind.
	matches, _ := filepath.Glob(path + ".tmp-*")
	if len(matches) != 0 {
		t.Fatalf("rewrite left temp files: %v", matches)
	}
}

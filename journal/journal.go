// Package journal implements the crash-safe append-only campaign journal
// behind resumable exploration campaigns (psharp-test -journal/-resume).
//
// The package has two layers. The low-level Log is a generic append-only
// record file: a versioned binary header followed by checksummed records,
// recovered after a crash by truncating at the last valid record. The
// high-level Campaign (campaign.go) layers typed records on top of it —
// schedule fingerprints, per-worker strategy cursors, merged counters and
// telemetry checkpoints — plus a shard manifest so N processes can split
// one campaign.
//
// # File format
//
// A journal file is a 16-byte header followed by zero or more records:
//
//	header:  magic "PSHJRNL\x00" | version uint32 LE | reserved uint32 LE
//	record:  kind byte | length uint32 LE | payload | checksum uint64 LE
//
// The checksum is 64-bit FNV-1a over the record's kind byte, its length
// field bytes, and its payload, so neither a flipped payload byte nor a
// flipped length byte can go unnoticed. Payloads are capped at MaxPayload;
// a larger length field cannot come from a torn write of a legal record and
// is always treated as corruption.
//
// # Recovery semantics
//
// Append-only files fail in one benign way — the process died mid-append,
// leaving a truncated final record — and recovery must not confuse that
// with real corruption:
//
//   - A partial record at end-of-file (too few bytes, or a checksum
//     mismatch on the very last record) is a torn write: Open truncates the
//     file back to the last valid record and the campaign continues. At
//     most the un-flushed tail of work is re-executed, never lost state.
//   - A checksum mismatch with more data after it, an oversized length
//     field, or a bad magic/version header is real corruption: Open fails
//     loudly with a *CorruptError (or *VersionError) instead of silently
//     dropping interior records.
//
// # Durability
//
// Appends go through a buffered writer and are fsynced every
// Options.SyncEvery records (Sync and Close always flush). A lower cadence
// bounds how much exploration a power loss can cost; a higher cadence keeps
// the journal entirely off the exploration hot path. Compaction filters the
// shard file: the meta record and every fingerprint record pass through
// verbatim and in file order, so each still precedes every cursor that counts
// it, followed by the live cursors, the newest counters and the thinned
// checkpoints. Like the campaign manifest, the result goes to a temp file
// that is fsynced and renamed over the old one, so a crash during compaction
// leaves either the old or the new file, never a hybrid.
package journal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Version is the journal file-format version this package reads and
// writes. Files with any other version are rejected loudly: silently
// reinterpreting an unknown layout could resurrect wrong campaign state.
// The framing has not changed since version 1; version 2 is the schedule
// fingerprint the campaign records carry (sct hashes one word per decision,
// no longer the machine's type name byte by byte). A version-1 campaign
// resumed by this build would count every schedule it explores again as
// distinct, so it is refused like any other unknown version.
const Version = 2

// MaxPayload caps a record payload at 64 MiB. Campaign records are a few
// KiB at most; a length field beyond the cap is proof of corruption, not a
// torn write, because torn writes only ever truncate legal records.
const MaxPayload = 1 << 26

const headerLen = 16

var magic = [8]byte{'P', 'S', 'H', 'J', 'R', 'N', 'L', 0}

// header is the first headerLen bytes of every journal this build writes.
var header = func() (h [headerLen]byte) {
	copy(h[:], magic[:])
	binary.LittleEndian.PutUint32(h[8:12], Version)
	return h
}()

// ErrNotJournal reports that a file does not start with the journal magic.
var ErrNotJournal = errors.New("journal: not a journal file (bad magic)")

// VersionError reports a journal written by an unknown format version.
type VersionError struct {
	Path    string
	Version uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("journal: %s: unsupported format version %d (this build reads version %d)", e.Path, e.Version, Version)
}

// CorruptError reports unrecoverable mid-file corruption: a record whose
// checksum or framing is wrong with valid data after it, which truncation
// would silently destroy.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: %s: corrupt record at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Record is one recovered journal record.
type Record struct {
	Kind    byte
	Payload []byte
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// checksum is 64-bit FNV-1a over kind, the 4 length bytes, and payload.
func checksum(kind byte, payload []byte) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(kind)) * fnvPrime64
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(payload)))
	for _, b := range lenb {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	for _, b := range payload {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// appendRecord frames one record onto buf.
func appendRecord(buf []byte, kind byte, payload []byte) []byte {
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint64(buf, checksum(kind, payload))
}

// Log is the low-level append-only record file. It is not safe for
// concurrent use; Campaign serializes access behind its own mutex.
type Log struct {
	path      string
	f         *os.File
	buf       []byte // pending appended bytes not yet written through
	syncEvery int    // fsync cadence in records; <= 0 means only on Sync/Close
	unsynced  int
	err       error // first write error; latched, later appends are no-ops
}

// CreateLog creates a fresh journal at path (failing if one already
// exists) and writes its header durably.
func CreateLog(path string, syncEvery int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	_, err = f.Write(header[:])
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{path: path, f: f, syncEvery: syncEvery}, nil
}

// OpenLog recovers the journal at path and returns it positioned for
// appending, together with every valid record in file order. A torn tail
// is truncated away; mid-file corruption or an alien header fails loudly
// (see the package docs for the exact classification).
func OpenLog(path string, syncEvery int) (*Log, []Record, error) {
	records, validEnd, err := RecoverFile(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if validEnd < headerLen {
		// The header itself was torn (crash between create and first sync):
		// rewrite it and start over as an empty journal.
		_, err = f.WriteAt(header[:], 0)
		validEnd = headerLen
	}
	if err == nil {
		err = f.Truncate(validEnd)
	}
	if err == nil {
		_, err = f.Seek(validEnd, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{path: path, f: f, syncEvery: syncEvery}, records, nil
}

// RecoverFile scans the journal at path read-only and returns its valid
// records plus the byte offset at which the valid prefix ends. It applies
// the package's recovery classification but modifies nothing, so peer
// shards of a live campaign can be read safely. The payloads share one
// buffer, the file's bytes as read.
func RecoverFile(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return recover_(path, data)
}

func recover_(path string, data []byte) ([]Record, int64, error) {
	n := len(data)
	if n < len(magic) {
		// Even the magic is incomplete. An empty or near-empty file is a torn
		// header if what is there matches the magic prefix; anything else is
		// not a journal.
		if string(data) != string(magic[:n]) {
			return nil, 0, ErrNotJournal
		}
		return nil, 0, nil
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, 0, ErrNotJournal
	}
	if n < headerLen {
		return nil, 0, nil // torn header: magic ok, version missing
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return nil, 0, &VersionError{Path: path, Version: v}
	}
	var records []Record
	off := int64(headerLen)
	for int(off) < n {
		rest := n - int(off)
		if rest < 5 {
			return records, off, nil // torn tail: framing incomplete
		}
		kind := data[off]
		plen := binary.LittleEndian.Uint32(data[off+1 : off+5])
		if plen > MaxPayload {
			return nil, 0, &CorruptError{Path: path, Offset: off,
				Reason: fmt.Sprintf("payload length %d exceeds cap %d", plen, MaxPayload)}
		}
		total := 5 + int64(plen) + 8
		if off+total > int64(n) {
			return records, off, nil // torn tail: record extends past EOF
		}
		payload := data[off+5 : off+5+int64(plen)]
		want := binary.LittleEndian.Uint64(data[off+5+int64(plen) : off+total])
		if checksum(kind, payload) != want {
			if off+total == int64(n) {
				// The final record's checksum is wrong and nothing follows it:
				// indistinguishable from a torn append, so treat it as one.
				return records, off, nil
			}
			return nil, 0, &CorruptError{Path: path, Offset: off, Reason: "checksum mismatch"}
		}
		records = append(records, Record{Kind: kind, Payload: payload})
		off += total
	}
	return records, off, nil
}

// Err returns the first write error, if any. After an error the log is
// poisoned: further appends are silently dropped so a campaign can finish
// in memory and report the journal failure once at the end.
func (l *Log) Err() error { return l.err }

// Append appends one record. The write is buffered; durability follows the
// configured fsync cadence.
func (l *Log) Append(kind byte, payload []byte) error {
	if l.err != nil {
		return l.err
	}
	if len(payload) > MaxPayload {
		l.err = fmt.Errorf("journal: record payload %d bytes exceeds cap %d", len(payload), MaxPayload)
		return l.err
	}
	l.buf = appendRecord(l.buf, kind, payload)
	l.unsynced++
	if l.syncEvery > 0 && l.unsynced >= l.syncEvery {
		return l.Sync()
	}
	// Keep the in-memory tail bounded even when syncing is rare.
	if len(l.buf) >= 1<<20 {
		return l.flush()
	}
	return nil
}

// flush writes buffered records to the file without fsyncing.
func (l *Log) flush() error {
	if l.err != nil {
		return l.err
	}
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = err
		return err
	}
	l.buf = l.buf[:0]
	return nil
}

// Sync flushes buffered records and fsyncs the file.
func (l *Log) Sync() error {
	if err := l.flush(); err != nil {
		return err
	}
	if l.unsynced == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	l.unsynced = 0
	return nil
}

// Close syncs and closes the journal.
func (l *Log) Close() error {
	return cmp.Or(l.Sync(), l.f.Close())
}

// Rewrite atomically replaces the journal's contents with records — the
// compaction primitive — through writeFileAtomic, and re-opens the log for
// appending.
func (l *Log) Rewrite(records []Record) error {
	if err := l.Sync(); err != nil {
		return err
	}
	buf := append([]byte(nil), header[:]...)
	for _, r := range records {
		buf = appendRecord(buf, r.Kind, r.Payload)
	}
	if err := writeFileAtomic(l.path, buf); err != nil {
		l.err = err
		return err
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		l.err = err
		return err
	}
	l.f.Close()
	l.f = f
	return nil
}

// writeFileAtomic replaces path with data so that a crash at any point
// leaves either the complete old file or the complete new one: it writes a
// sibling temp file, fsyncs it, and renames it over path.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

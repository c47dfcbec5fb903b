package journal

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Record kinds of the campaign layer.
const (
	recMeta         byte = 1 // JSON Meta: what campaign this shard belongs to
	recFingerprints byte = 2 // batch of 8-byte LE schedule fingerprints
	recCursor       byte = 3 // per-worker strategy cursor (supersedes prior)
	recCounters     byte = 4 // campaign-cumulative counters (supersedes prior)
	recCheckpoint   byte = 5 // telemetry growth-curve checkpoint
)

// Meta identifies a campaign: a resumed or sharded run must present the
// same Meta (up to its own ShardIndex) or be rejected, because cursors and
// fingerprints only make sense against the exact strategy stream, seed,
// worker layout and fault plan that produced them. The iteration budget is
// deliberately absent: growing it on resume is the whole point of
// budget-split campaigns, and the worker→iteration mapping is
// budget-independent.
type Meta struct {
	Benchmark string `json:"benchmark,omitempty"`
	Strategy  string `json:"strategy"`
	Seed      uint64 `json:"seed"`
	// Workers is the per-process worker count; the campaign's global worker
	// count is Workers × ShardCount.
	Workers    int `json:"workers"`
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	MaxSteps   int `json:"max_steps,omitempty"`
	// FaultBudget/FaultHorizon pin the fault-injection plan; a cursor from a
	// faulted stream is meaningless without it.
	FaultBudget  int `json:"fault_budget,omitempty"`
	FaultHorizon int `json:"fault_horizon,omitempty"`
	// Extra is a free-form fingerprint of any further configuration the
	// caller wants validated across resumes (psharp-test packs monitor and
	// liveness flags here).
	Extra string `json:"extra,omitempty"`
}

// normalized is the shard-independent view used for manifest comparison.
func (m Meta) normalized() Meta {
	m.ShardIndex = 0
	return m
}

// mismatch describes the first way other differs from m (shard-independent
// fields only), or returns "" when they are compatible.
func (m Meta) mismatch(other Meta) string {
	a, b := m.normalized(), other.normalized()
	switch {
	case a.Benchmark != b.Benchmark:
		return fmt.Sprintf("benchmark %q vs %q", b.Benchmark, a.Benchmark)
	case a.Strategy != b.Strategy:
		return fmt.Sprintf("strategy %q vs %q", b.Strategy, a.Strategy)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", b.Seed, a.Seed)
	case a.Workers != b.Workers:
		return fmt.Sprintf("workers %d vs %d", b.Workers, a.Workers)
	case a.ShardCount != b.ShardCount:
		return fmt.Sprintf("shard count %d vs %d", b.ShardCount, a.ShardCount)
	case a.MaxSteps != b.MaxSteps:
		return fmt.Sprintf("max steps %d vs %d", b.MaxSteps, a.MaxSteps)
	case a.FaultBudget != b.FaultBudget:
		return fmt.Sprintf("fault budget %d vs %d", b.FaultBudget, a.FaultBudget)
	case a.FaultHorizon != b.FaultHorizon:
		return fmt.Sprintf("fault horizon %d vs %d", b.FaultHorizon, a.FaultHorizon)
	case a.Extra != b.Extra:
		return fmt.Sprintf("config %q vs %q", b.Extra, a.Extra)
	}
	return ""
}

// Counters is the campaign-cumulative counter record: everything a resumed
// run must merge into its report (sct.Tally, as int64s, plus wall-clock time).
type Counters struct {
	Iterations            int64
	BuggyIterations       int64
	BoundReached          int64
	TotalSchedulingPoints int64
	MaxSchedulingPoints   int64
	MaxMachines           int64
	Crashes               int64
	Restarts              int64
	Drops                 int64
	Duplicates            int64
	Reorders              int64
	ElapsedMicros         int64
	PrunedIterations      int64
	PrunedPoints          int64
	ReplayedPoints        int64
	RestoredPoints        int64
	ContinuedPoints       int64
}

// counterSlot is one counter of a Counters: where it lives, and whether two
// records combine it as a maximum instead of a sum.
type counterSlot struct {
	v   *int64
	max bool
}

// legacyCounterSlots is how many values the record had before it carried the
// state-cache and hand-off counters; such a record still decodes, the missing
// ones as 0.
const legacyCounterSlots = 12

// slots lists every counter once, in the order of the journal record: new
// ones go at the end. Encoding, decoding and Merge all walk this list.
// ElapsedMicros is a maximum because records merge across shards, which run
// side by side; a resumed run adds its own time to the record's itself.
func (c *Counters) slots() [17]counterSlot {
	return [...]counterSlot{
		{v: &c.Iterations}, {v: &c.BuggyIterations}, {v: &c.BoundReached},
		{v: &c.TotalSchedulingPoints}, {v: &c.MaxSchedulingPoints, max: true}, {v: &c.MaxMachines, max: true},
		{v: &c.Crashes}, {v: &c.Restarts}, {v: &c.Drops}, {v: &c.Duplicates}, {v: &c.Reorders},
		{v: &c.ElapsedMicros, max: true},
		{v: &c.PrunedIterations}, {v: &c.PrunedPoints}, {v: &c.ReplayedPoints},
		{v: &c.RestoredPoints}, {v: &c.ContinuedPoints},
	}
}

// Merge folds another record into c — another shard's here, another run's or
// worker's in sct.Tally.Merge: sums add, maxima (the two Max fields and
// ElapsedMicros) take the larger.
func (c *Counters) Merge(o Counters) {
	theirs := o.slots()
	for i, s := range c.slots() {
		if s.max {
			*s.v = max(*s.v, *theirs[i].v)
		} else {
			*s.v += *theirs[i].v
		}
	}
}

// Checkpoint is one telemetry growth-curve point, durable so the coverage
// growth curve of a resumed campaign spans process lifetimes.
type Checkpoint struct {
	ElapsedMicros      int64
	Iterations         int64
	DistinctSchedules  int64
	CoveredTransitions int64
}

// Options tunes a campaign journal.
type Options struct {
	// SyncEvery fsyncs the shard file every N appended records. 0 selects
	// DefaultSyncEvery; negative syncs only at checkpoints and Close (the
	// fastest and least durable setting — a crash can lose everything since
	// the last checkpoint, but never corrupt the journal).
	SyncEvery int
}

// DefaultSyncEvery is the default fsync cadence in records: frequent
// enough that a SIGKILL loses at most a few flush batches, rare enough
// that the fsync cost never shows up against schedule execution.
const DefaultSyncEvery = 64

const (
	// compactRatio triggers recompaction when dead (superseded) records
	// exceed this fraction of the file's records.
	compactRatio = 0.5
	// compactMinRecords suppresses compaction below this record count so
	// small journals never pay a rewrite.
	compactMinRecords = 512
	// checkpointEvery rate-limits telemetry checkpoints.
	checkpointEvery = time.Second
)

// ManifestName is the campaign manifest file inside a journal directory.
const ManifestName = "MANIFEST.json"

type manifestFile struct {
	Format int  `json:"format"`
	Shards int  `json:"shards"`
	Meta   Meta `json:"meta"`
}

// ShardFileName is the journal file name for shard index of count.
func ShardFileName(index, count int) string {
	return fmt.Sprintf("shard-%03d-of-%03d.journal", index, count)
}

type cursorState struct {
	completed int
	blob      []byte
}

// shard is what a shard file's records say but its fingerprints: each
// worker's newest cursor, the newest counters, the checkpoints in time order,
// and how many records the file has and how many a later one superseded.
type shard struct {
	cursors     map[int]cursorState
	counters    Counters
	hasCounters bool
	checkpoints []Checkpoint
	lastCkpt    int64 // ElapsedMicros of the newest checkpoint
	total       int
	dead        int
}

// readShard is the one reader of shard records, for this process's shard,
// its peers' and ReadState's alike. It checks that the file is shard
// want.ShardIndex of want's campaign, hands each fingerprint to fp in file
// order and folds the other records into a shard. A record that does not
// decode, or of a kind this build does not write, is a *CorruptError. A file
// without records (its process died before the meta record) is empty.
func readShard(path string, records []Record, want Meta, fp func(uint64)) (shard, error) {
	s := shard{cursors: make(map[int]cursorState)}
	if len(records) == 0 {
		return s, nil
	}
	off, m := int64(headerLen), Meta{}
	corrupt := func(reason string) error { return &CorruptError{Path: path, Offset: off, Reason: reason} }
	if records[0].Kind != recMeta {
		return s, corrupt("journal does not begin with a campaign meta record")
	}
	if err := json.Unmarshal(records[0].Payload, &m); err != nil {
		return s, corrupt("undecodable campaign meta: " + err.Error())
	}
	if m.ShardIndex != want.ShardIndex {
		return s, fmt.Errorf("journal: %s holds shard %d, expected shard %d", path, m.ShardIndex, want.ShardIndex)
	}
	if diff := want.mismatch(m); diff != "" {
		return s, fmt.Errorf("journal: %s belongs to a different campaign: %s", path, diff)
	}
	s.total = 1
	for i, r := range records[1:] {
		off += int64(5 + len(records[i].Payload) + 8)
		if err := s.fold(r, fp); err != nil {
			return s, corrupt(err.Error())
		}
	}
	return s, nil
}

// fold applies one record after the meta record to s. A live Campaign folds
// each record it appends too, so its state is what a resume would read.
func (s *shard) fold(r Record, fp func(uint64)) error {
	s.total++
	switch r.Kind {
	case recFingerprints:
		if len(r.Payload)%8 != 0 {
			return errors.New("fingerprint batch not a multiple of 8 bytes")
		}
		for p := r.Payload; fp != nil && len(p) > 0; p = p[8:] {
			fp(binary.LittleEndian.Uint64(p))
		}
	case recCursor:
		worker, cs, err := decodeCursor(r.Payload)
		if err != nil {
			return fmt.Errorf("undecodable cursor: %w", err)
		}
		if _, had := s.cursors[worker]; had {
			s.dead++
		}
		s.cursors[worker] = cs
	case recCounters:
		ct, err := decodeCounters(r.Payload)
		if err != nil {
			return fmt.Errorf("undecodable counters: %w", err)
		}
		if s.hasCounters {
			s.dead++
		}
		s.counters, s.hasCounters = ct, true
	case recCheckpoint:
		cp, err := decodeCheckpoint(r.Payload)
		if err != nil {
			return fmt.Errorf("undecodable checkpoint: %w", err)
		}
		s.checkpoints = append(s.checkpoints, cp)
		s.lastCkpt = cp.ElapsedMicros
	default:
		// Unknown kinds under a known version would mean a newer writer
		// sharing our version number; that must not pass silently.
		return fmt.Errorf("unknown record kind %d", r.Kind)
	}
	return nil
}

// Campaign is one process's handle on a campaign journal directory: it
// appends this shard's records and carries the recovered state for the
// engine to preload. In memory it keeps what a resume would read of its
// shard's cursors, counters and checkpoints, which Cursor, Counters and
// Checkpoints report and compaction rewrites. It keeps no fingerprints but
// the recovered Fingerprints slice: the engine holds every one in its own
// set and compaction copies them from the file, so a copy here would double
// a campaign's largest structure. All methods are safe for concurrent use.
type Campaign struct {
	log     *Log
	preload []uint64 // recovered fingerprints: this shard's ∪ its peers'
	resumed bool

	mu    sync.Mutex
	shard // this shard's state, including every record appended since open
	err   error
	buf   []byte // reusable payload encoding buffer
}

// Create starts a fresh campaign shard in dir, creating the directory and
// manifest as needed. It fails if this shard already has a journal (use
// Resume) or if dir's manifest belongs to a different campaign.
func Create(dir string, meta Meta, opts Options) (*Campaign, error) {
	return open(dir, meta, opts, false)
}

// Resume reopens a campaign shard, recovering all durable state: the
// fingerprint set (this shard's and every peer shard's), per-worker
// cursors, counters and checkpoints. A shard that never ran before is
// created fresh — whether its journal is missing entirely or is a bare
// header because the process died before its first flush — so a resumed
// campaign can grow shards that crashed before their first durable write.
// Recovery truncates a torn tail silently and rejects mid-file corruption
// loudly.
func Resume(dir string, meta Meta, opts Options) (*Campaign, error) {
	return open(dir, meta, opts, true)
}

func open(dir string, meta Meta, opts Options, resume bool) (*Campaign, error) {
	if opts.SyncEvery == 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if meta.ShardCount <= 0 {
		meta.ShardCount = 1
	}
	if meta.ShardIndex < 0 || meta.ShardIndex >= meta.ShardCount {
		return nil, fmt.Errorf("journal: shard index %d out of range [0,%d)", meta.ShardIndex, meta.ShardCount)
	}
	if meta.Workers <= 0 {
		return nil, errors.New("journal: Meta.Workers must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := ensureManifest(dir, meta, resume); err != nil {
		return nil, err
	}
	c := &Campaign{}
	seen := make(map[uint64]struct{})
	collect := func(fp uint64) {
		if _, dup := seen[fp]; !dup {
			seen[fp] = struct{}{}
			c.preload = append(c.preload, fp)
		}
	}
	// Peers first, so a bad peer refuses the campaign before this shard's
	// file is created. Peers are read, never modified: they may belong to
	// live processes.
	for i := 0; i < meta.ShardCount; i++ {
		if i == meta.ShardIndex {
			continue
		}
		peer := meta
		peer.ShardIndex = i
		if _, err := readShardFile(dir, peer, collect); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	path := filepath.Join(dir, ShardFileName(meta.ShardIndex, meta.ShardCount))
	_, statErr := os.Stat(path)
	var records []Record
	var err error
	switch {
	case statErr == nil && !resume:
		return nil, fmt.Errorf("journal: %s already has a journal for shard %d/%d; resume the campaign or choose a fresh directory",
			dir, meta.ShardIndex, meta.ShardCount)
	case statErr == nil:
		c.log, records, err = OpenLog(path, opts.SyncEvery)
	default:
		c.log, err = CreateLog(path, opts.SyncEvery)
	}
	if err != nil {
		return nil, err
	}
	c.shard, err = readShard(path, records, meta, collect)
	if err == nil && len(records) == 0 {
		// A new shard, or one whose process died before its first flush:
		// recovery truncated the torn meta record and left a bare header.
		// Nothing durable ever landed, so seed it as if created fresh.
		err = seedMeta(c.log, meta)
		c.total = 1
	}
	if err != nil {
		c.log.Close()
		return nil, err
	}
	c.resumed = len(records) > 0
	return c, nil
}

// readShardFile reads shard want.ShardIndex of the campaign in dir without
// modifying it; a shard with no file yet is an os.IsNotExist error.
func readShardFile(dir string, want Meta, fp func(uint64)) (shard, error) {
	path := filepath.Join(dir, ShardFileName(want.ShardIndex, want.ShardCount))
	records, _, err := RecoverFile(path)
	if err != nil {
		return shard{}, err
	}
	return readShard(path, records, want, fp)
}

// seedMeta appends the campaign identity as the journal's first record and
// syncs it through immediately, regardless of the fsync cadence: until the
// meta record is durable the shard cannot be resumed as anything but
// empty, so the one extra fsync per campaign buys away almost the whole
// torn-at-birth window.
func seedMeta(log *Log, meta Meta) error {
	mp, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := log.Append(recMeta, mp); err != nil {
		return err
	}
	return log.Sync()
}

// readManifest reads and version-checks dir's campaign manifest.
func readManifest(dir string) (manifestFile, error) {
	var mf manifestFile
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		return mf, err
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		return mf, fmt.Errorf("journal: %s: %w", path, err)
	}
	if mf.Format != Version {
		return mf, &VersionError{Path: path, Version: uint32(mf.Format)}
	}
	return mf, nil
}

// ensureManifest writes the campaign manifest atomically on first contact
// and validates it on every later one.
func ensureManifest(dir string, meta Meta, resume bool) error {
	path := filepath.Join(dir, ManifestName)
	mf, err := readManifest(dir)
	switch {
	case err == nil:
		if mf.Shards != meta.ShardCount {
			return fmt.Errorf("journal: %s records %d shard(s), run asked for %d", path, mf.Shards, meta.ShardCount)
		}
		if diff := mf.Meta.mismatch(meta); diff != "" {
			return fmt.Errorf("journal: %s belongs to a different campaign: %s", path, diff)
		}
		return nil
	case os.IsNotExist(err) && resume:
		return fmt.Errorf("journal: %s has no campaign manifest; nothing to resume", dir)
	case os.IsNotExist(err):
		data, err := json.MarshalIndent(manifestFile{Format: Version, Shards: meta.ShardCount, Meta: meta.normalized()}, "", "  ")
		if err != nil {
			return err
		}
		return writeFileAtomic(path, append(data, '\n'))
	default:
		return err
	}
}

// Resumed reports whether this shard recovered prior state.
func (c *Campaign) Resumed() bool { return c.resumed }

// Fingerprints returns every fingerprint recovered at open time — this
// shard's union every peer shard's — for preloading the engine's
// distinct-schedule set. The slice is shared; do not mutate it.
func (c *Campaign) Fingerprints() []uint64 { return c.preload }

// Cursor returns worker's newest cursor: how many local iterations it had
// completed and its strategy's opaque cursor blob, if any.
func (c *Campaign) Cursor(worker int) (completed int, blob []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.cursors[worker]
	return cs.completed, cs.blob, ok
}

// Counters returns the newest counter record (zero if none), i.e. the
// campaign-cumulative totals as of the last completed run.
func (c *Campaign) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Checkpoints returns the telemetry checkpoints in time order.
func (c *Campaign) Checkpoints() []Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Checkpoint(nil), c.checkpoints...)
}

// Err returns the first append/IO error. The journal latches errors and
// turns later appends into no-ops, so a sick disk degrades a campaign to
// an unjournaled run instead of crashing it; callers check Err once at the
// end.
func (c *Campaign) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cmp.Or(c.err, c.log.Err())
}

// appendLocked appends one record and folds it into the handle's state by
// the reader's own rule; it reports whether the record was appended.
func (c *Campaign) appendLocked(kind byte, payload []byte) bool {
	if c.log.Append(kind, payload) != nil {
		return false
	}
	if err := c.fold(Record{Kind: kind, Payload: payload}, nil); err != nil {
		c.err = err
		return false
	}
	return true
}

// Advance journals one worker's progress: a batch of newly-distinct
// fingerprints followed by the worker's cursor. The fingerprints land
// before the cursor, so a torn tail can only lose the cursor advance —
// re-executing those iterations on resume is safe (the fingerprint set
// deduplicates) whereas skipping unjournaled ones would not be.
func (c *Campaign) Advance(worker, completed int, cursor []byte, fps []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed() {
		return
	}
	if len(fps) > 0 {
		c.buf = c.buf[:0]
		for _, fp := range fps {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, fp)
		}
		if !c.appendLocked(recFingerprints, c.buf) {
			return
		}
	}
	c.buf = appendCursor(c.buf[:0], worker, cursorState{completed: completed, blob: cursor})
	if c.appendLocked(recCursor, c.buf) {
		c.maybeCompactLocked()
	}
}

// SaveCounters journals the campaign-cumulative counters, superseding any
// prior counter record.
func (c *Campaign) SaveCounters(ct Counters) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed() {
		return
	}
	c.buf = encodeCounters(c.buf[:0], ct)
	if c.appendLocked(recCounters, c.buf) {
		c.maybeCompactLocked()
	}
}

// Checkpoint journals a telemetry growth-curve point, rate-limited to one
// per checkpointEvery unless force is set (the final checkpoint of
// a run always lands). Checkpoints are also sync barriers: even under a
// negative SyncEvery the journal is durable up to the last checkpoint.
func (c *Campaign) Checkpoint(cp Checkpoint, force bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed() || !force && cp.ElapsedMicros-c.lastCkpt < checkpointEvery.Microseconds() {
		return
	}
	c.buf = appendCheckpoint(c.buf[:0], cp)
	if c.appendLocked(recCheckpoint, c.buf) {
		c.log.Sync()
	}
}

// failed reports (under c.mu) whether the journal has latched an error.
func (c *Campaign) failed() bool {
	return c.err != nil || c.log.Err() != nil
}

// maxCheckpointsKept bounds how many checkpoints a compaction rewrite
// preserves; older points are evenly thinned, mirroring obs.Curve.
const maxCheckpointsKept = 256

// maybeCompactLocked rewrites the shard file without superseded records once
// they are more than compactRatio of it: the meta record and every
// fingerprint record pass through from the file verbatim and in file order,
// then come the live cursors by worker, the counters and the thinned
// checkpoints.
func (c *Campaign) maybeCompactLocked() {
	if c.total < compactMinRecords || float64(c.dead) <= compactRatio*float64(c.total) {
		return
	}
	if c.log.Sync() != nil {
		return // latched in the log
	}
	records, _, err := RecoverFile(c.log.path)
	if err != nil {
		c.err = err
		return
	}
	kept := records[:0]
	for _, r := range records {
		if r.Kind == recMeta || r.Kind == recFingerprints {
			kept = append(kept, r)
		}
	}
	for _, w := range slices.Sorted(maps.Keys(c.cursors)) {
		kept = append(kept, Record{Kind: recCursor, Payload: appendCursor(nil, w, c.cursors[w])})
	}
	if c.hasCounters {
		kept = append(kept, Record{Kind: recCounters, Payload: encodeCounters(nil, c.counters)})
	}
	for len(c.checkpoints) > maxCheckpointsKept {
		thinned := make([]Checkpoint, 0, len(c.checkpoints)/2)
		for i := 1; i < len(c.checkpoints); i += 2 {
			thinned = append(thinned, c.checkpoints[i])
		}
		c.checkpoints = thinned
	}
	for _, cp := range c.checkpoints {
		kept = append(kept, Record{Kind: recCheckpoint, Payload: appendCheckpoint(nil, cp)})
	}
	if c.log.Rewrite(kept) != nil {
		return // latched in the log
	}
	c.total, c.dead = len(kept), 0
}

// Sync flushes and fsyncs the shard file.
func (c *Campaign) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return c.log.Sync()
}

// Close syncs and closes the shard file, reporting any latched error.
func (c *Campaign) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cmp.Or(c.err, c.log.Close())
}

// The one encoder of each record kind but the fingerprint batch (Advance's)
// and the meta record (seedMeta's), each beside its decoder.

func appendCursor(buf []byte, worker int, cs cursorState) []byte {
	buf = binary.AppendUvarint(buf, uint64(worker))
	buf = binary.AppendUvarint(buf, uint64(cs.completed))
	return append(buf, cs.blob...)
}

func decodeCursor(p []byte) (worker int, cs cursorState, err error) {
	w, n := binary.Uvarint(p)
	done, m := binary.Uvarint(p[max(n, 0):])
	if n <= 0 || m <= 0 {
		return 0, cs, errors.New("short worker or completed field")
	}
	if p = p[n+m:]; len(p) > 0 {
		cs.blob = append([]byte(nil), p...)
	}
	cs.completed = int(done)
	return int(w), cs, nil
}

func encodeCounters(buf []byte, ct Counters) []byte {
	for _, s := range ct.slots() {
		buf = binary.AppendUvarint(buf, uint64(*s.v))
	}
	return buf
}

func decodeCounters(p []byte) (Counters, error) {
	var ct Counters
	for i, s := range ct.slots() {
		if len(p) == 0 && i >= legacyCounterSlots {
			break
		}
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return Counters{}, fmt.Errorf("short counter field %d", i)
		}
		*s.v, p = int64(v), p[n:]
	}
	return ct, nil
}

// fields lists a checkpoint's values in the order of its record.
func (cp *Checkpoint) fields() [4]*int64 {
	return [...]*int64{&cp.ElapsedMicros, &cp.Iterations, &cp.DistinctSchedules, &cp.CoveredTransitions}
}

func appendCheckpoint(buf []byte, cp Checkpoint) []byte {
	for _, v := range cp.fields() {
		buf = binary.AppendUvarint(buf, uint64(*v))
	}
	return buf
}

func decodeCheckpoint(p []byte) (Checkpoint, error) {
	var cp Checkpoint
	for i, v := range cp.fields() {
		u, n := binary.Uvarint(p)
		if n <= 0 {
			return Checkpoint{}, fmt.Errorf("short checkpoint field %d", i)
		}
		*v, p = int64(u), p[n:]
	}
	return cp, nil
}

// State is the read-only merged view of a whole campaign directory, across
// every shard — what psharp-test prints after a journaled run and what
// tooling reads to track a long campaign.
type State struct {
	Meta Meta
	// Shards is the manifest's shard count; ShardsPresent how many have a
	// journal on disk.
	Shards        int
	ShardsPresent int
	// DistinctSchedules is the size of the union of all shards' journaled
	// fingerprint sets.
	DistinctSchedules int
	// Counters merges the newest counter record of every shard.
	Counters Counters
}

// ReadState recovers and merges every shard of the campaign in dir without
// taking ownership of any file. A shard that does not belong to the
// manifest's campaign, or holds a record that does not decode, is an error.
func ReadState(dir string) (*State, error) {
	mf, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &State{Meta: mf.Meta, Shards: mf.Shards}
	seen := make(map[uint64]struct{})
	for i := 0; i < mf.Shards; i++ {
		want := mf.Meta
		want.ShardIndex, want.ShardCount = i, mf.Shards
		s, err := readShardFile(dir, want, func(fp uint64) { seen[fp] = struct{}{} })
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		st.ShardsPresent++
		st.Counters.Merge(s.counters) // zero, which merges as nothing, without a record
	}
	st.DistinctSchedules = len(seen)
	return st, nil
}

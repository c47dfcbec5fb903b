package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

// Campaign is one process's handle on a campaign journal directory: it
// appends this shard's records and carries the recovered state (its own
// plus the union of peer shards' fingerprints) for the engine to preload.
// All methods are safe for concurrent use by exploration workers.
type Campaign struct {
	log  *Log
	dir  string
	meta Meta

	mu          sync.Mutex
	own         map[uint64]struct{} // fingerprints journaled in this shard's file
	preload     []uint64            // recovered fingerprints: own ∪ peers
	cursors     map[int]cursorState
	counters    Counters
	hasCounters bool
	checkpoints []Checkpoint
	lastCkpt    int64 // ElapsedMicros of the newest checkpoint
	total       int   // records in the shard file
	dead        int   // superseded records among them
	resumed     bool
	err         error
	buf         []byte // reusable payload encoding buffer
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
	c := &Campaign{
		dir:     dir,
		meta:    meta,
		own:     make(map[uint64]struct{}),
		cursors: make(map[int]cursorState),
	}
	path := filepath.Join(dir, ShardFileName(meta.ShardIndex, meta.ShardCount))
	_, statErr := os.Stat(path)
	switch {
	case statErr == nil && !resume:
		return nil, fmt.Errorf("journal: %s already has a journal for shard %d/%d; resume the campaign or choose a fresh directory",
			dir, meta.ShardIndex, meta.ShardCount)
	case statErr == nil:
		log, records, err := OpenLog(path, opts.SyncEvery)
		if err != nil {
			return nil, err
		}
		if len(records) == 0 {
			// The process died before its first flush: recovery truncated
			// the torn meta record and left a bare header. Nothing durable
			// ever landed, so re-seed the shard as if created fresh rather
			// than refusing to resume it.
			if err := seedMeta(log, meta); err != nil {
				log.Close()
				return nil, err
			}
			c.log = log
			c.total = 1
			break
		}
		if err := c.replay(path, records); err != nil {
			log.Close()
			return nil, err
		}
		c.log = log
		c.resumed = true
	default:
		log, err := CreateLog(path, opts.SyncEvery)
		if err != nil {
			return nil, err
		}
		if err := seedMeta(log, meta); err != nil {
			log.Close()
			return nil, err
		}
		c.log = log
		c.total = 1
	}
	if err := c.loadPeers(); err != nil {
		c.log.Close()
		return nil, err
	}
	return c, nil
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

// ensureManifest writes the campaign manifest atomically on first contact
// and validates it on every later one.
func ensureManifest(dir string, meta Meta, resume bool) error {
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var mf manifestFile
		if err := json.Unmarshal(data, &mf); err != nil {
			return fmt.Errorf("journal: %s: %w", path, err)
		}
		if mf.Format != Version {
			return &VersionError{Path: path, Version: uint32(mf.Format)}
		}
		if mf.Shards != meta.ShardCount {
			return fmt.Errorf("journal: %s records %d shard(s), run asked for %d", path, mf.Shards, meta.ShardCount)
		}
		if diff := mf.Meta.mismatch(meta); diff != "" {
			return fmt.Errorf("journal: %s belongs to a different campaign: %s", path, diff)
		}
		return nil
	case os.IsNotExist(err):
		if resume {
			return fmt.Errorf("journal: %s has no campaign manifest; nothing to resume", dir)
		}
		mf := manifestFile{Format: Version, Shards: meta.ShardCount, Meta: meta.normalized()}
		data, err := json.MarshalIndent(mf, "", "  ")
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}

// replay folds a recovered record stream into campaign state.
func (c *Campaign) replay(path string, records []Record) error {
	if len(records) == 0 || records[0].Kind != recMeta {
		return &CorruptError{Path: path, Offset: headerLen, Reason: "journal does not begin with a campaign meta record"}
	}
	var fileMeta Meta
	if err := json.Unmarshal(records[0].Payload, &fileMeta); err != nil {
		return &CorruptError{Path: path, Offset: headerLen, Reason: "undecodable campaign meta: " + err.Error()}
	}
	if fileMeta.ShardIndex != c.meta.ShardIndex {
		return fmt.Errorf("journal: %s holds shard %d, expected shard %d", path, fileMeta.ShardIndex, c.meta.ShardIndex)
	}
	if diff := c.meta.mismatch(fileMeta); diff != "" {
		return fmt.Errorf("journal: %s belongs to a different campaign: %s", path, diff)
	}
	for _, r := range records[1:] {
		switch r.Kind {
		case recFingerprints:
			if len(r.Payload)%8 != 0 {
				return &CorruptError{Path: path, Reason: "fingerprint batch not a multiple of 8 bytes"}
			}
			for i := 0; i+8 <= len(r.Payload); i += 8 {
				c.own[binary.LittleEndian.Uint64(r.Payload[i:])] = struct{}{}
			}
		case recCursor:
			worker, completed, blob, err := decodeCursor(r.Payload)
			if err != nil {
				return &CorruptError{Path: path, Reason: "undecodable cursor: " + err.Error()}
			}
			if _, had := c.cursors[worker]; had {
				c.dead++
			}
			c.cursors[worker] = cursorState{completed: completed, blob: blob}
		case recCounters:
			ct, err := decodeCounters(r.Payload)
			if err != nil {
				return &CorruptError{Path: path, Reason: "undecodable counters: " + err.Error()}
			}
			if c.hasCounters {
				c.dead++
			}
			c.counters, c.hasCounters = ct, true
		case recCheckpoint:
			cp, err := decodeCheckpoint(r.Payload)
			if err != nil {
				return &CorruptError{Path: path, Reason: "undecodable checkpoint: " + err.Error()}
			}
			c.checkpoints = append(c.checkpoints, cp)
			c.lastCkpt = cp.ElapsedMicros
		default:
			// Unknown kinds under a known version would mean a newer writer
			// sharing our version number; that must not pass silently.
			return &CorruptError{Path: path, Reason: fmt.Sprintf("unknown record kind %d", r.Kind)}
		}
	}
	c.total = len(records)
	return nil
}

// loadPeers unions the other shards' journaled fingerprints into the
// preload set. Peers are read with the same recovery rules but never
// modified — they may belong to live processes.
func (c *Campaign) loadPeers() error {
	seen := make(map[uint64]struct{}, len(c.own))
	for fp := range c.own {
		seen[fp] = struct{}{}
		c.preload = append(c.preload, fp)
	}
	for shard := 0; shard < c.meta.ShardCount; shard++ {
		if shard == c.meta.ShardIndex {
			continue
		}
		path := filepath.Join(c.dir, ShardFileName(shard, c.meta.ShardCount))
		records, _, err := RecoverFile(path)
		if os.IsNotExist(err) {
			continue // the peer has not started yet
		}
		if err != nil {
			return err
		}
		for _, r := range records {
			if r.Kind != recFingerprints {
				continue
			}
			for i := 0; i+8 <= len(r.Payload); i += 8 {
				fp := binary.LittleEndian.Uint64(r.Payload[i:])
				if _, dup := seen[fp]; !dup {
					seen[fp] = struct{}{}
					c.preload = append(c.preload, fp)
				}
			}
		}
	}
	return nil
}

// Resumed reports whether this shard recovered prior state.
func (c *Campaign) Resumed() bool { return c.resumed }

// Meta returns the campaign identity this handle was opened with.
func (c *Campaign) Meta() Meta { return c.meta }

// Dir returns the journal directory.
func (c *Campaign) Dir() string { return c.dir }

// Fingerprints returns every fingerprint recovered at open time — this
// shard's union every peer shard's — for preloading the engine's
// distinct-schedule set. The slice is shared; do not mutate it.
func (c *Campaign) Fingerprints() []uint64 { return c.preload }

// Cursor returns worker's recovered cursor: how many local iterations it
// had completed and its strategy's opaque cursor blob, if any.
func (c *Campaign) Cursor(worker int) (completed int, blob []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.cursors[worker]
	return cs.completed, cs.blob, ok
}

// Counters returns the newest recovered counter record (zero if none),
// i.e. the campaign-cumulative totals as of the last completed run.
func (c *Campaign) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Checkpoints returns the recovered telemetry checkpoints in time order.
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
	if c.err != nil {
		return c.err
	}
	return c.log.Err()
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
			c.own[fp] = struct{}{}
		}
		if c.log.Append(recFingerprints, c.buf) != nil {
			return
		}
		c.total++
	}
	c.buf = c.buf[:0]
	c.buf = binary.AppendUvarint(c.buf, uint64(worker))
	c.buf = binary.AppendUvarint(c.buf, uint64(completed))
	c.buf = append(c.buf, cursor...)
	if c.log.Append(recCursor, c.buf) != nil {
		return
	}
	c.total++
	if _, had := c.cursors[worker]; had {
		c.dead++
	}
	c.cursors[worker] = cursorState{completed: completed, blob: append([]byte(nil), cursor...)}
	c.maybeCompactLocked()
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
	if c.log.Append(recCounters, c.buf) != nil {
		return
	}
	c.total++
	if c.hasCounters {
		c.dead++
	}
	c.counters, c.hasCounters = ct, true
	c.maybeCompactLocked()
}

// Checkpoint journals a telemetry growth-curve point, rate-limited to one
// per checkpointEvery unless force is set (the final checkpoint of
// a run always lands). Checkpoints are also sync barriers: even under a
// negative SyncEvery the journal is durable up to the last checkpoint.
func (c *Campaign) Checkpoint(cp Checkpoint, force bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed() {
		return
	}
	if !force && cp.ElapsedMicros-c.lastCkpt < checkpointEvery.Microseconds() {
		return
	}
	c.buf = c.buf[:0]
	c.buf = binary.AppendUvarint(c.buf, uint64(cp.ElapsedMicros))
	c.buf = binary.AppendUvarint(c.buf, uint64(cp.Iterations))
	c.buf = binary.AppendUvarint(c.buf, uint64(cp.DistinctSchedules))
	c.buf = binary.AppendUvarint(c.buf, uint64(cp.CoveredTransitions))
	if c.log.Append(recCheckpoint, c.buf) != nil {
		return
	}
	c.total++
	c.checkpoints = append(c.checkpoints, cp)
	c.lastCkpt = cp.ElapsedMicros
	c.log.Sync()
}

// failed reports (under c.mu) whether the journal has latched an error.
func (c *Campaign) failed() bool {
	return c.err != nil || c.log.Err() != nil
}

// maxCheckpointsKept bounds how many checkpoints a compaction rewrite
// preserves; older points are evenly thinned, mirroring obs.Curve.
const maxCheckpointsKept = 256

// maybeCompactLocked rewrites the shard file without superseded records
// once the dead-record ratio crosses compactRatio.
func (c *Campaign) maybeCompactLocked() {
	if c.total < compactMinRecords || float64(c.dead) <= compactRatio*float64(c.total) {
		return
	}
	c.compactLocked()
}

func (c *Campaign) compactLocked() {
	mp, err := json.Marshal(c.meta)
	if err != nil {
		c.err = err
		return
	}
	records := []Record{{Kind: recMeta, Payload: mp}}
	// One sorted batch per 64k fingerprints: deterministic output, bounded
	// payloads.
	fps := make([]uint64, 0, len(c.own))
	for fp := range c.own {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	const batch = 1 << 16
	for i := 0; i < len(fps); i += batch {
		end := min(i+batch, len(fps))
		payload := make([]byte, 0, (end-i)*8)
		for _, fp := range fps[i:end] {
			payload = binary.LittleEndian.AppendUint64(payload, fp)
		}
		records = append(records, Record{Kind: recFingerprints, Payload: payload})
	}
	workers := make([]int, 0, len(c.cursors))
	for w := range c.cursors {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		cs := c.cursors[w]
		payload := binary.AppendUvarint(nil, uint64(w))
		payload = binary.AppendUvarint(payload, uint64(cs.completed))
		payload = append(payload, cs.blob...)
		records = append(records, Record{Kind: recCursor, Payload: payload})
	}
	if c.hasCounters {
		records = append(records, Record{Kind: recCounters, Payload: encodeCounters(nil, c.counters)})
	}
	ckpts := c.checkpoints
	for len(ckpts) > maxCheckpointsKept {
		kept := make([]Checkpoint, 0, (len(ckpts)+1)/2)
		for i := 1; i < len(ckpts); i += 2 {
			kept = append(kept, ckpts[i])
		}
		ckpts = kept
	}
	c.checkpoints = ckpts
	for _, cp := range ckpts {
		payload := binary.AppendUvarint(nil, uint64(cp.ElapsedMicros))
		payload = binary.AppendUvarint(payload, uint64(cp.Iterations))
		payload = binary.AppendUvarint(payload, uint64(cp.DistinctSchedules))
		payload = binary.AppendUvarint(payload, uint64(cp.CoveredTransitions))
		records = append(records, Record{Kind: recCheckpoint, Payload: payload})
	}
	if err := c.log.Rewrite(records); err != nil {
		return // latched in the log
	}
	c.total = len(records)
	c.dead = 0
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
	closeErr := c.log.Close()
	if c.err != nil {
		return c.err
	}
	return closeErr
}

func decodeCursor(p []byte) (worker, completed int, blob []byte, err error) {
	w, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, errors.New("short worker field")
	}
	p = p[n:]
	done, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, errors.New("short completed field")
	}
	p = p[n:]
	if len(p) > 0 {
		blob = append([]byte(nil), p...)
	}
	return int(w), int(done), blob, nil
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
		*s.v = int64(v)
		p = p[n:]
	}
	return ct, nil
}

func decodeCheckpoint(p []byte) (Checkpoint, error) {
	var vals [4]int64
	for i := range vals {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return Checkpoint{}, fmt.Errorf("short checkpoint field %d", i)
		}
		vals[i] = int64(v)
		p = p[n:]
	}
	return Checkpoint{
		ElapsedMicros: vals[0], Iterations: vals[1],
		DistinctSchedules: vals[2], CoveredTransitions: vals[3],
	}, nil
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
// taking ownership of any file.
func ReadState(dir string) (*State, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("journal: %s: %w", filepath.Join(dir, ManifestName), err)
	}
	if mf.Format != Version {
		return nil, &VersionError{Path: filepath.Join(dir, ManifestName), Version: uint32(mf.Format)}
	}
	st := &State{Meta: mf.Meta, Shards: mf.Shards}
	seen := make(map[uint64]struct{})
	for shard := 0; shard < mf.Shards; shard++ {
		records, _, err := RecoverFile(filepath.Join(dir, ShardFileName(shard, mf.Shards)))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		st.ShardsPresent++
		var last Counters // zero, which merges as nothing, until a record is found
		for _, r := range records {
			switch r.Kind {
			case recFingerprints:
				for i := 0; i+8 <= len(r.Payload); i += 8 {
					seen[binary.LittleEndian.Uint64(r.Payload[i:])] = struct{}{}
				}
			case recCounters:
				if ct, err := decodeCounters(r.Payload); err == nil {
					last = ct
				}
			}
		}
		st.Counters.Merge(last)
	}
	st.DistinctSchedules = len(seen)
	return st, nil
}

package sct

// The search oracle. testdata/search_golden.json was recorded from the two
// separate enumerators this package had (dfs.go and dpor.go) immediately
// before they were replaced by the one schedule tree of search.go; every
// cell is what one depth-first strategy did over its first attempts on one
// corpus variant — which schedules, in which order, how many pruned, and how
// much of each attempt the harness did not have to execute because the
// strategy promised to repeat it (psharp.PrefixResumer). The tree must
// reproduce every cell, sharded and not, with and without the state cache,
// and again with its cursor saved and loaded into a fresh strategy half way.
//
// Regenerate (only when a deliberate semantic change moves the search) with:
//
//	PSHARP_WRITE_GOLDENS=1 go test -run TestWriteSearchGolden ./sct

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
)

const (
	searchGoldenPath     = "testdata/search_golden.json"
	searchGoldenAttempts = 300
	searchGoldenReloadAt = 150
)

// searchRun is what one strategy did over searchGoldenAttempts attempts.
// Digest folds, in order, every attempt's schedule fingerprint, whether the
// state cache pruned it and the bug it ended in.
type searchRun struct {
	Digest    string `json:"digest"`
	Explored  int    `json:"explored"`
	Pruned    int    `json:"pruned"`
	Bugs      int    `json:"bugs"`
	Exhausted bool   `json:"exhausted"`
	Restored  int    `json:"restored"`
	Replayed  int    `json:"replayed"`
}

// searchEntry is one cell: the run as is, and the run whose strategy is
// replaced after attempt searchGoldenReloadAt by a fresh one loaded from its
// cursor.
type searchEntry struct {
	Key      string    `json:"key"`
	Run      searchRun `json:"run"`
	Reloaded searchRun `json:"reloaded"`
}

type searchFile struct {
	Note    string        `json:"note"`
	Entries []searchEntry `json:"entries"`
}

type searchCase struct {
	key           string
	bench         protocols.Benchmark
	strategy      string
	cache         bool
	shard, shards int
}

func searchCases() []searchCase {
	var cases []searchCase
	for _, b := range protocols.All() {
		for _, strategy := range []string{"dfs", "dpor"} {
			for _, cache := range []bool{false, true} {
				for _, sh := range [][2]int{{0, 1}, {0, 3}, {2, 3}} {
					name := strategy
					if cache {
						name += "+cache"
					}
					cases = append(cases, searchCase{
						key:   fmt.Sprintf("%s/%s/%dof%d", b.ID(), name, sh[0]+1, sh[1]),
						bench: b, strategy: strategy, cache: cache, shard: sh[0], shards: sh[1],
					})
				}
			}
		}
	}
	return cases
}

func (sc searchCase) build(t *testing.T) Strategy {
	return cursorStrategy(t, sc.strategy, sc.shard, sc.shards)
}

func (sc searchCase) run(t *testing.T, reloadAt int) searchRun {
	s := sc.build(t)
	h := psharp.NewTestHarness(sc.bench.SetupMonitored())
	defer h.Close()
	cfg := psharp.TestConfig{Strategy: s, MaxSteps: sc.bench.MaxSteps, LivelockAsBug: sc.bench.LivelockAsBug}
	if sc.cache {
		cfg.StateCache = new(stateCache)
	}
	var out searchRun
	digest := uint64(fnvOffset)
	for i := 0; i < searchGoldenAttempts; i++ {
		if i == reloadAt {
			blob := s.SaveCursor()
			s = sc.build(t)
			if err := s.LoadCursor(blob); err != nil {
				t.Fatalf("%s: cursor saved after attempt %d does not load: %v", sc.key, i, err)
			}
			cfg.Strategy = s
		}
		if !s.PrepareIteration(i) {
			out.Exhausted = true
			break
		}
		res := h.Run(cfg)
		if res.Err != nil {
			t.Fatalf("%s: attempt %d: %v", sc.key, i, res.Err)
		}
		out.Restored += res.RestoredPoints
		out.Replayed += res.ReplayedPoints
		digest = fnvMix(digest, fingerprintTrace(res.Trace))
		switch {
		case res.Pruned:
			out.Pruned++
			digest = fnvMix(digest, 1)
		case res.Bug != nil:
			out.Explored++
			out.Bugs++
			digest = fnvMix(digest, 2+uint64(res.Bug.Kind))
		default:
			out.Explored++
			digest = fnvMix(digest, 0)
		}
	}
	out.Digest = fmt.Sprintf("%016x", digest)
	return out
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func (sc searchCase) entry(t *testing.T) searchEntry {
	return searchEntry{Key: sc.key, Run: sc.run(t, -1), Reloaded: sc.run(t, searchGoldenReloadAt)}
}

func TestWriteSearchGolden(t *testing.T) {
	if os.Getenv("PSHARP_WRITE_GOLDENS") == "" {
		t.Skip("set PSHARP_WRITE_GOLDENS=1 to re-record " + searchGoldenPath)
	}
	var buf bytes.Buffer
	buf.WriteString(`{"note": "Recorded by TestWriteSearchGolden; see search_golden_test.go.", "entries": [`)
	for i, sc := range searchCases() {
		line, err := json.Marshal(sc.entry(t))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		buf.Write(line)
	}
	buf.WriteString("\n]}\n")
	if err := os.WriteFile(searchGoldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSearchGolden reproduces every recorded cell, and holds the file to two
// things a cursor promises whoever recorded it: a search continued from a
// loaded cursor explores what the uninterrupted one does, and the recorded
// cells do exercise sharding, pruning, restoring and exhaustion.
func TestSearchGolden(t *testing.T) {
	data, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var sf searchFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	cases := searchCases()
	if len(sf.Entries) != len(cases) {
		t.Fatalf("%s lists %d entries, the generator enumerates %d; re-record with PSHARP_WRITE_GOLDENS=1",
			searchGoldenPath, len(sf.Entries), len(cases))
	}
	var total searchRun
	for i, want := range sf.Entries {
		if want.Key != cases[i].key {
			t.Fatalf("entry %d is %q, the generator enumerates %q; re-record with PSHARP_WRITE_GOLDENS=1", i, want.Key, cases[i].key)
		}
		plain := want.Run
		if plain != want.Reloaded {
			t.Errorf("%s: recorded search diverges after its cursor is reloaded:\n plain    %+v\n reloaded %+v", want.Key, plain, want.Reloaded)
		}
		total.Pruned += plain.Pruned
		total.Bugs += plain.Bugs
		total.Restored += plain.Restored
		if plain.Exhausted {
			total.Explored++
		}
	}
	if total.Pruned == 0 || total.Bugs == 0 || total.Restored == 0 || total.Explored == 0 {
		t.Errorf("the recorded oracle exercises too little: %d pruned, %d bugs, %d restored points, %d exhausted cells",
			total.Pruned, total.Bugs, total.Restored, total.Explored)
	}
	// Restored points were recorded under the quiescent-only snapshot rule.
	// Where the checkpoints sit is not the search, and snapshots at any
	// scheduling point restore a cell more or a few points less: the cells
	// must restore at least as much in all (testdata/restored_golden.json in
	// the root package pins the table2_reduced cells exactly).
	const shards = 4
	restored := make([]int, shards)
	t.Run("cells", func(t *testing.T) {
		for shard := 0; shard < shards; shard++ {
			t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
				t.Parallel()
				for i := shard; i < len(cases); i += shards {
					got, want := cases[i].entry(t), sf.Entries[i]
					restored[shard] += got.Run.Restored + got.Reloaded.Restored
					got.Run.Restored, got.Reloaded.Restored = want.Run.Restored, want.Reloaded.Restored
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s diverged from the recorded search:\n got %+v\nwant %+v", want.Key, cases[i].entry(t), want)
					}
				}
			})
		}
	})
	recorded := 0
	for _, e := range sf.Entries {
		recorded += e.Run.Restored + e.Reloaded.Restored
	}
	if got := restored[0] + restored[1] + restored[2] + restored[3]; got < recorded {
		t.Errorf("the cells restore %d points in all, the recorded searches %d", got, recorded)
	}
}

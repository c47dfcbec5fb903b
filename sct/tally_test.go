package sct

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/psharp-go/psharp/journal"
)

// fillDistinct sets every integer field of v, nested structs included, to a
// distinct non-zero value, and fails on a field of any other kind: a counter
// of a new kind needs its own wiring check.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			*next++
			f.SetInt(*next)
		case reflect.Struct:
			fillDistinct(t, f, next)
		default:
			t.Fatalf("%s.%s is a %s: fillDistinct knows only integers and structs of them",
				v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestTallyFieldsAreWiredEverywhere: a counter is added to Tally in one
// place, and this fails until Merge, the JSON keys, the per-strategy
// breakdown and the journal's counters record carry it too.
func TestTallyFieldsAreWiredEverywhere(t *testing.T) {
	var full Tally
	fillDistinct(t, reflect.ValueOf(&full).Elem(), new(int64))

	var merged Tally
	merged.Merge(full)
	if merged != full {
		t.Errorf("Merge into a zero tally dropped a counter:\n got %+v\nwant %+v", merged, full)
	}

	data, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Tally
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded != full {
		t.Errorf("JSON round trip dropped a counter:\n got %+v\nwant %+v\njson %s", decoded, full, data)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if want := reflect.TypeOf(full).NumField(); len(keys) != want {
		t.Errorf("%d JSON keys for %d fields: %s", len(keys), want, data)
	}

	// The per-strategy breakdown of two workers of one label is their Merge,
	// every key of it in the breakdown's JSON.
	var twice Tally
	twice.Merge(full)
	twice.Merge(full)
	worker := WorkerReport{Strategy: "random", Report: Report{Tally: full}}
	b := strategyBreakdowns(&Report{}, []WorkerReport{worker, worker})
	if len(b) != 1 || b[0].Workers != 2 || b[0].Tally != twice {
		t.Errorf("breakdown of two workers = %+v, want one of 2 workers with %+v", b, twice)
	}
	data, err = json.Marshal(b[0])
	if err != nil {
		t.Fatal(err)
	}
	var bkeys map[string]any
	if err := json.Unmarshal(data, &bkeys); err != nil {
		t.Fatal(err)
	}
	for key := range keys {
		if _, ok := bkeys[key]; !ok {
			t.Errorf("breakdown JSON lacks the tally's %q: %s", key, data)
		}
	}

	dir := filepath.Join(t.TempDir(), "camp")
	meta := journal.Meta{Strategy: "random", Workers: 1, ShardCount: 1}
	c, err := journal.Create(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ct journal.Counters
	full.save(&ct)
	c.SaveCounters(ct)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := journal.Resume(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recovered := r.Counters()
	var resumed Tally
	resumed.load(&recovered)
	if resumed != full {
		t.Errorf("SaveCounters → Resume → Counters dropped a counter:\n got %+v\nwant %+v", resumed, full)
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans are recorded only here, around those calls; the program under test
// carries no tracing code.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list, -1 for a root
	Workload string `json:"workload"`
	Round    int    `json:"round"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so workloads call it
// unconditionally and the untraced pass pays one nil check per call site.
type tracer struct {
	workload string
	round    int
	origin   time.Time
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload, Round: t.round})
	t.open = append(t.open, id)
	t.spans[id].StartNS = time.Since(t.origin).Nanoseconds()
	f()
	t.spans[id].EndNS = time.Since(t.origin).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS)
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.EndNS - s.StartNS)
		}
	}
	return self
}

// counts returns the number of spans recorded per name.
func (t *tracer) counts() map[string]int {
	n := make(map[string]int)
	for _, s := range t.spans {
		n[s.Name]++
	}
	return n
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

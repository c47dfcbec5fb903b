package psharp_test

// Satellite regression tests for the trace text format: machine-type and
// monitor names containing whitespace would corrupt the whitespace-separated
// "s <type> <seq>" schedule records, so they are rejected at registration,
// and well-formed traces round-trip exactly.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// TestRegisterRejectsWhitespaceNames locks the trace-format guard: names
// with any whitespace are rejected by Register and RegisterMonitor before
// they can reach a trace.
func TestRegisterRejectsWhitespaceNames(t *testing.T) {
	factory := func() psharp.Machine { return &mute{} }
	for _, name := range []string{"two words", "tab\tsep", "new\nline", "cr\rname", " leading", "trailing "} {
		r := psharp.NewRuntime()
		if err := r.Register(name, factory); err == nil {
			t.Errorf("Register(%q) accepted a whitespace name", name)
		} else if !strings.Contains(err.Error(), "whitespace") {
			t.Errorf("Register(%q) error %q does not explain the whitespace rule", name, err)
		}
		if err := r.RegisterMonitor(name, factory); err == nil {
			t.Errorf("RegisterMonitor(%q) accepted a whitespace name", name)
		}
	}
}

// TestTraceEncodeDecodeRoundTrip checks that a real exploration trace
// encodes and decodes back to the identical decision sequence, and that the
// decoded trace still replays the same schedule.
func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	setup := staticBallotSetup()
	var trace *psharp.Trace
	var bug *psharp.Bug
	for seed := uint64(1); seed < 64; seed++ {
		res := psharp.RunTest(setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 500})
		if res.Bug != nil {
			trace, bug = res.Trace.Clone(), res.Bug
			break
		}
	}
	if trace == nil {
		t.Fatal("no buggy schedule found to round-trip")
	}

	var buf bytes.Buffer
	if err := trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := psharp.DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace.Decisions, decoded.Decisions) {
		t.Fatalf("decisions diverged after round-trip:\nbefore: %v\nafter:  %v", trace.Decisions, decoded.Decisions)
	}

	res := sct.ReplayTrace(setup, decoded, psharp.TestConfig{MaxSteps: 500})
	if res.Bug == nil || res.Bug.Message != bug.Message {
		t.Fatalf("decoded trace did not replay the bug: got %v, want %v", res.Bug, bug)
	}
}

// TestTraceRejectsHeaderless locks the version gate: a version-1 trace
// (or any non-trace input) has no "psharp-trace" header and must fail
// loudly instead of silently replaying the wrong decisions.
func TestTraceRejectsHeaderless(t *testing.T) {
	v1 := "s Worker 1\nb 1\ns Worker 2\n"
	if _, err := psharp.DecodeTrace(strings.NewReader(v1)); err == nil {
		t.Fatal("DecodeTrace accepted a headerless (pre-fault, version 1) trace")
	} else if !strings.Contains(err.Error(), "header") {
		t.Fatalf("error %q does not mention the missing header", err)
	}
	if _, err := psharp.DecodeTrace(strings.NewReader("")); err == nil {
		t.Fatal("DecodeTrace accepted empty input")
	}
}

// TestTraceRejectsUnknownVersion checks that traces from a future format
// version are refused rather than misparsed.
func TestTraceRejectsUnknownVersion(t *testing.T) {
	future := "psharp-trace 3\ns Worker 1\n"
	if _, err := psharp.DecodeTrace(strings.NewReader(future)); err == nil {
		t.Fatal("DecodeTrace accepted an unsupported future version")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error %q does not mention the version", err)
	}
}

// TestTraceFaultRecordsRoundTrip round-trips every fault record shape —
// declines, message faults, and crashes with each restart/mailbox
// combination — through the version-2 text encoding.
func TestTraceFaultRecordsRoundTrip(t *testing.T) {
	trace := &psharp.Trace{Decisions: []psharp.Decision{
		{Kind: psharp.DecisionSchedule, Machine: psharp.MachineRef{Seq: 1}},
		{Kind: psharp.DecisionFault}, // a recorded decline (FaultNone)
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDrop}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDuplicate}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultReorder}},
		{Kind: psharp.DecisionBool, Bool: true},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{
			Kind: psharp.FaultCrash, Machine: psharp.MachineRef{Seq: 1}}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{
			Kind: psharp.FaultCrash, Machine: psharp.MachineRef{Seq: 2}, Restart: true}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{
			Kind: psharp.FaultCrash, Machine: psharp.MachineRef{Seq: 3}, Restart: true, PreserveMailbox: true}},
		{Kind: psharp.DecisionInt, Int: 4},
	}, Types: []string{"Coord", "Worker", "Worker"}}
	if !trace.HasFaultDecisions() {
		t.Fatal("HasFaultDecisions is false on a trace full of fault records")
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "psharp-trace 2\n") {
		t.Fatalf("encoded trace does not begin with the version header:\n%s", buf.String())
	}
	decoded, err := psharp.DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace.Decisions, decoded.Decisions) {
		t.Fatalf("fault records diverged after round-trip:\nbefore: %v\nafter:  %v", trace.Decisions, decoded.Decisions)
	}
	if !slices.Equal(trace.Types, decoded.Types) {
		t.Fatalf("names table diverged after round-trip: %q, want %q", decoded.Types, trace.Types)
	}
}

// TestTraceEncodeMatchesFormattedReference holds Encode, which appends its
// records without fmt, to the byte sequence the fmt-based encoder it
// replaced produced: every record kind, long names, extreme values, a trace
// long enough to cross the writer's buffer many times, and a writer that
// fails.
func TestTraceEncodeMatchesFormattedReference(t *testing.T) {
	reference := func(tr *psharp.Trace) string {
		var b strings.Builder
		fmt.Fprintf(&b, "psharp-trace %d\n", psharp.TraceFormatVersion)
		fmt.Fprintln(&b, "# records: s <type> <seq> | b 0|1 | i <value> | f none|drop|dup|reorder | f crash <type> <seq> <restart> <keepq>")
		for _, d := range tr.Decisions {
			switch d.Kind {
			case psharp.DecisionSchedule:
				fmt.Fprintf(&b, "s %s %d\n", tr.ID(d.Machine).Type, d.Machine.Seq)
			case psharp.DecisionBool:
				fmt.Fprintf(&b, "b %d\n", map[bool]int{true: 1}[d.Bool])
			case psharp.DecisionInt:
				fmt.Fprintf(&b, "i %d\n", d.Int)
			case psharp.DecisionFault:
				if f := d.Fault; f.Kind == psharp.FaultCrash {
					fmt.Fprintf(&b, "f crash %s %d %d %d\n", tr.ID(f.Machine).Type, f.Machine.Seq,
						map[bool]int{true: 1}[f.Restart], map[bool]int{true: 1}[f.PreserveMailbox])
				} else {
					fmt.Fprintf(&b, "f %s\n", f.Kind)
				}
			}
		}
		return b.String()
	}
	// The names table: Seq 2 has a long name, Seqs 4-6 and 8-11 none.
	types := []string{"M", strings.Repeat("LongTypeName", 40), "Node", "", "", "", "Node", "", "", "", "", "Node"}
	id := func(seq uint64) psharp.MachineRef { return psharp.MachineRef{Seq: seq} }
	records := []psharp.Decision{
		{Kind: psharp.DecisionSchedule, Machine: id(1)},
		{Kind: psharp.DecisionSchedule, Machine: id(2)},
		{Kind: psharp.DecisionBool}, {Kind: psharp.DecisionBool, Bool: true},
		{Kind: psharp.DecisionInt}, {Kind: psharp.DecisionInt, Int: math.MaxInt32}, {Kind: psharp.DecisionInt, Int: math.MinInt32},
		{Kind: psharp.DecisionFault},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDrop}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDuplicate}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultReorder}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultKind(17)}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id(3)}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id(12), Restart: true}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id(7), Restart: true, PreserveMailbox: true}},
		{Kind: psharp.DecisionKind(9)}, // not a record: neither encoder writes anything
	}
	tr := &psharp.Trace{Types: types}
	for i := 0; i < 700; i++ { // ≈ 350 KB through a 4 KB buffer
		tr.Decisions = append(tr.Decisions, records...)
		tr.Decisions = append(tr.Decisions, psharp.Decision{Kind: psharp.DecisionInt, Int: int32(i)})
	}
	var got strings.Builder
	if err := tr.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if want := reference(tr); got.String() != want {
		for i := 0; i < len(want) && i < got.Len(); i++ {
			if got.String()[i] != want[i] {
				t.Fatalf("encodings differ at byte %d: %q, want %q", i, got.String()[max(0, i-40):i+20], want[max(0, i-40):i+20])
			}
		}
		t.Fatalf("encoded %d bytes, want %d", got.Len(), len(want))
	}
	if err := tr.Encode(failingWriter{}); err == nil || err.Error() != "disk full" {
		t.Fatalf("Encode into a failing writer: %v, want its error", err)
	}
	if err := (&psharp.Trace{}).Encode(failingWriter{}); err == nil {
		t.Fatal("an empty trace's header failed to write and Encode said nothing")
	}

	// Encode's buffered writer is pooled. The one that just failed must come
	// back clean, and in steady state an Encode into a buffer that is already
	// large enough allocates nothing but, at most, a writer the pool had
	// dropped. (A fault kind without a mnemonic is formatted, which allocates:
	// no recorded trace has one.)
	plain := &psharp.Trace{Types: types}
	for _, d := range tr.Decisions {
		if d.Fault.Kind <= psharp.FaultReorder {
			plain.Decisions = append(plain.Decisions, d)
		}
	}
	want := reference(plain)
	var buf bytes.Buffer
	buf.Grow(len(want))
	allocs := testing.AllocsPerRun(20, func() {
		buf.Reset()
		if err := plain.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if buf.String() != want {
		t.Fatal("Encode through a recycled writer wrote a different encoding")
	}
	if allocs > 1 {
		t.Errorf("Encode into a pre-grown buffer allocates %.1f times, want <= 1", allocs)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestTraceDecisionSize pins the record: a kind, a value of that kind and
// a machine named by Seq alone, 32 bytes, with the type names kept once per
// trace in Types.
func TestTraceDecisionSize(t *testing.T) {
	if got := unsafe.Sizeof(psharp.Decision{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Decision{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(psharp.FaultAction{}); got != 16 {
		t.Errorf("unsafe.Sizeof(FaultAction{}) = %d, want 16", got)
	}
}

// TestTraceDecodeRejects holds DecodeTrace to a line-numbered error on each
// record that would give the names table a wrong or an oversized entry.
func TestTraceDecodeRejects(t *testing.T) {
	const h = "psharp-trace 2\n# a comment\n"
	for _, tc := range []struct{ name, input, want string }{
		{"seq 0", h + "s Node 1\ns Node 0\n", "trace line 4: machine seq 0"},
		{"crash of seq 0", h + "f crash Node 0 1 0\n", "trace line 3: machine seq 0"},
		{"one seq, two types", h + "s Node 2\nb 1\ns Peer 2\n", "trace line 5: machine 2 has type Peer here but Node"},
		{"crash renames a machine", h + "s Node 2\nf crash Peer 2 1 0\n", "trace line 4: machine 2 has type Peer here but Node"},
		{"seq 2^40", h + "s N 1099511627776\n", "trace line 3: machine seq 1099511627776 is out of proportion"},
		{"seq 2^64", h + "s N 18446744073709551616\n", "trace line 3: bad seq"},
		{"int past int32", h + "i 2147483648\n", "trace line 3: bad value"},
		{"int before int32", h + "i -2147483649\n", "trace line 3: bad value"},
	} {
		tr, err := psharp.DecodeTrace(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeTrace = %v, %v; want an error containing %q", tc.name, tr, err, tc.want)
		}
	}
	// The bounds themselves are accepted.
	tr, err := psharp.DecodeTrace(strings.NewReader(h + "i 2147483647\ni -2147483648\ns N 65537\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Types) != 65537 || tr.Types[65536] != "N" || tr.Decisions[1].Int != math.MinInt32 {
		t.Fatalf("decoded %d names, last %q, decisions %+v", len(tr.Types), tr.Types[len(tr.Types)-1], tr.Decisions)
	}
}

// TestTraceDecodeAllocatesPerName decodes a 10 000-record trace of three
// machine types. The records are parsed in place, so what allocates is the
// scanner, the growth of the decision and names slices, and one string per
// distinct name: a fixed few dozen, where one allocation per record would be
// 10 000.
func TestTraceDecodeAllocatesPerName(t *testing.T) {
	tr := &psharp.Trace{Types: []string{"Server", "Client", "Client", "Timer"}}
	for i := 0; len(tr.Decisions) < 10_000; i++ {
		tr.Decisions = append(tr.Decisions,
			psharp.Decision{Kind: psharp.DecisionSchedule, Machine: psharp.MachineRef{Seq: uint64(i%4 + 1)}},
			psharp.Decision{Kind: psharp.DecisionBool, Bool: i%3 == 0},
			psharp.Decision{Kind: psharp.DecisionInt, Int: int32(i)},
			psharp.Decision{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDrop}},
			psharp.Decision{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: psharp.MachineRef{Seq: 2}, Restart: true}})
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	var back *psharp.Trace
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if back, err = psharp.DecodeTrace(bytes.NewReader(encoded)); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(back.Decisions, tr.Decisions) || !slices.Equal(back.Types, tr.Types) {
		t.Fatal("the decoded trace is not the encoded one")
	}
	if unsafe.StringData(back.Types[1]) != unsafe.StringData(back.Types[2]) {
		t.Error("the two Client machines do not share one interned name")
	}
	if allocs > 40 {
		t.Errorf("decoding %d records allocates %.0f times, want one per distinct name plus slice growth (<= 40)", len(tr.Decisions), allocs)
	}
}

// TestTraceEncodeRefusesUnnamedMachine: a record whose machine Types does
// not name cannot be written, and saying so is an error, not a record with
// an empty name that DecodeTrace would refuse.
func TestTraceEncodeRefusesUnnamedMachine(t *testing.T) {
	for _, tr := range []*psharp.Trace{
		{Decisions: []psharp.Decision{{Kind: psharp.DecisionSchedule, Machine: psharp.MachineRef{Seq: 1}}}},
		{Decisions: []psharp.Decision{{Kind: psharp.DecisionSchedule, Machine: psharp.MachineRef{Seq: 2}}}, Types: []string{"A", ""}},
		{Decisions: []psharp.Decision{{Kind: psharp.DecisionSchedule}}, Types: []string{"A"}},
		{Decisions: []psharp.Decision{{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: psharp.MachineRef{Seq: 3}}}}, Types: []string{"A"}},
	} {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err == nil || !strings.Contains(err.Error(), "whose type Types does not give") {
			t.Errorf("Encode(%+v) = %v, want the unnamed machine refused", tr, err)
		}
	}
}

// drawer draws RandomInt(n) for the n its creation payload carries.
type drawer struct{ psharp.StaticBase }

type evDraw struct {
	psharp.EventBase
	N int
}

func (*drawer) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		ctx.RandomInt(ev.(*evDraw).N)
	})
}

// TestTraceRandomIntBoundedByInt32: a controller records a drawn integer as
// an int32, so it refuses RandomInt(n) for n past math.MaxInt32 the way it
// refuses n <= 0, as the machine's assertion failure; math.MaxInt32 itself
// is drawn and recorded.
func TestTraceRandomIntBoundedByInt32(t *testing.T) {
	run := func(n int) psharp.IterationResult {
		return psharp.RunTest(func(r *psharp.Runtime) {
			r.MustRegister("Drawer", func() psharp.Machine { return &drawer{} })
			r.MustCreate("Drawer", &evDraw{N: n})
		}, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(3))})
	}
	if strconv.IntSize == 32 {
		t.Skip("an int cannot exceed math.MaxInt32")
	}
	big := math.MaxInt32
	for _, tc := range []struct {
		n    int
		want string
	}{{0, "n must be positive"}, {big + 1, "n must be at most 2147483647"}, {big<<31 + big, "n must be at most 2147483647"}} {
		res := run(tc.n)
		if res.Bug == nil || res.Bug.Kind != psharp.BugAssertion || !strings.Contains(res.Bug.Message, tc.want) {
			t.Errorf("RandomInt(%d): bug %v, want an assertion failure saying %q", tc.n, res.Bug, tc.want)
		}
	}
	res := run(math.MaxInt32)
	if res.Bug != nil {
		t.Fatalf("RandomInt(MaxInt32): %v", res.Bug)
	}
	if d := res.Trace.Decisions; len(d) != 2 || d[1].Kind != psharp.DecisionInt || d[1].Int < 0 {
		t.Fatalf("RandomInt(MaxInt32) recorded %+v", d)
	}
}

// impostor is a three-method strategy that picks the first enabled machine's
// Seq under another type's name.
type impostor struct{}

func (impostor) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	return psharp.MachineID{Type: "Impostor", Seq: enabled[0].Seq}
}
func (impostor) NextBool() bool  { return false }
func (impostor) NextInt(int) int { return 0 }

// TestTraceLegacyPickOfWrongTypeIsBugPanic: a Decision names a machine by
// Seq alone, but a three-method strategy answers with a MachineID, and one
// whose type is not that of the enabled machine with its Seq is still not
// enabled.
func TestTraceLegacyPickOfWrongTypeIsBugPanic(t *testing.T) {
	res := psharp.RunTest(staticBallotSetup(), psharp.TestConfig{Strategy: impostor{}})
	want := psharp.MachineID{Type: "Impostor", Seq: 1}
	if res.Bug == nil || res.Bug.Kind != psharp.BugPanic || res.Bug.Machine != want ||
		res.Bug.Message != "strategy chose Impostor(1), which is not enabled" {
		t.Fatalf("bug %v, want the strategy's pick of Impostor(1) refused", res.Bug)
	}
	if res.Trace.Len() != 0 {
		t.Fatalf("the refused pick left %d records", res.Trace.Len())
	}
}

// shapeshifter creates a Cat or a Dog as machine 2, as a controlled boolean
// says.
type shapeshifter struct{ psharp.StaticBase }

func (*shapeshifter) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		if ctx.RandomBool() {
			ctx.CreateMachine("Cat", nil)
		} else {
			ctx.CreateMachine("Dog", nil)
		}
	})
}

// TestTraceTypesOutliveTheNextIteration: a harness's traces share its names
// table, and a clone shares its trace's, so an iteration that creates a
// machine of another type at a Seq an earlier trace named must leave that
// trace's names as they were.
func TestTraceTypesOutliveTheNextIteration(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Root", func() psharp.Machine { return &shapeshifter{} })
		r.MustRegister("Cat", func() psharp.Machine { return &mute{} })
		r.MustRegister("Dog", func() psharp.Machine { return &mute{} })
		r.MustCreate("Root", nil)
	}
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	kept := map[string]*psharp.Trace{}
	var encoded []string
	for seed := uint64(1); len(kept) < 2 && seed < 100; seed++ {
		res := h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed))})
		if res.Bug != nil || len(res.Trace.Types) != 2 {
			t.Fatalf("seed %d: bug %v, names %q", seed, res.Bug, res.Trace.Types)
		}
		second := res.Trace.Types[1]
		if _, ok := kept[second]; !ok {
			clone := res.Trace.Clone()
			if &clone.Types[0] != &res.Trace.Types[0] {
				t.Fatal("Clone copied the names table")
			}
			kept[second] = clone
			encoded = append(encoded, encodeTrace(t, clone))
		}
	}
	if len(kept) != 2 {
		t.Fatalf("100 seeds created machine 2 as only %v", kept)
	}
	for i := 0; i < 20; i++ { // both shapes again, over the kept tables
		h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(uint64(i) + 100))})
	}
	for _, want := range encoded {
		animal := "Cat"
		if !strings.Contains(want, "Cat 2") {
			animal = "Dog"
		}
		if got := encodeTrace(t, kept[animal]); got != want {
			t.Errorf("the kept %s trace now encodes as\n%s\nwant\n%s", animal, got, want)
		}
	}
}

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
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// TestRegisterRejectsWhitespaceNames locks the trace-format guard: names
// with any whitespace are rejected by Register and RegisterMonitor before
// they can reach a trace.
func TestRegisterRejectsWhitespaceNames(t *testing.T) {
	factory := func() psharp.Machine {
		return psharp.StaticMachineFunc(func(sc *psharp.Schema) {
			sc.Start("S")
		})
	}
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
	setup := ballotSetup()
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
		{Kind: psharp.DecisionSchedule, Machine: psharp.MachineID{Type: "Coord", Seq: 1}},
		{Kind: psharp.DecisionFault}, // a recorded decline (FaultNone)
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDrop}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDuplicate}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultReorder}},
		{Kind: psharp.DecisionBool, Bool: true},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{
			Kind: psharp.FaultCrash, Machine: psharp.MachineID{Type: "Coord", Seq: 1}}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{
			Kind: psharp.FaultCrash, Machine: psharp.MachineID{Type: "Worker", Seq: 2}, Restart: true}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{
			Kind: psharp.FaultCrash, Machine: psharp.MachineID{Type: "Worker", Seq: 3}, Restart: true, PreserveMailbox: true}},
		{Kind: psharp.DecisionInt, Int: 4},
	}}
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
				fmt.Fprintf(&b, "s %s %d\n", d.Machine.Type, d.Machine.Seq)
			case psharp.DecisionBool:
				fmt.Fprintf(&b, "b %d\n", map[bool]int{true: 1}[d.Bool])
			case psharp.DecisionInt:
				fmt.Fprintf(&b, "i %d\n", d.Int)
			case psharp.DecisionFault:
				if f := d.Fault; f.Kind == psharp.FaultCrash {
					fmt.Fprintf(&b, "f crash %s %d %d %d\n", f.Machine.Type, f.Machine.Seq,
						map[bool]int{true: 1}[f.Restart], map[bool]int{true: 1}[f.PreserveMailbox])
				} else {
					fmt.Fprintf(&b, "f %s\n", f.Kind)
				}
			}
		}
		return b.String()
	}
	id := func(typ string, seq uint64) psharp.MachineID { return psharp.MachineID{Type: typ, Seq: seq} }
	records := []psharp.Decision{
		{Kind: psharp.DecisionSchedule, Machine: id("M", 1)},
		{Kind: psharp.DecisionSchedule, Machine: id(strings.Repeat("LongTypeName", 40), math.MaxUint64)},
		{Kind: psharp.DecisionSchedule, Machine: id("", 0)},
		{Kind: psharp.DecisionBool}, {Kind: psharp.DecisionBool, Bool: true},
		{Kind: psharp.DecisionInt}, {Kind: psharp.DecisionInt, Int: math.MaxInt}, {Kind: psharp.DecisionInt, Int: math.MinInt},
		{Kind: psharp.DecisionFault},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDrop}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultDuplicate}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultReorder}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultKind(17)}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id("Node", 3)}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id("Node", 12), Restart: true}},
		{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id("Node", 7), Restart: true, PreserveMailbox: true}},
		{Kind: psharp.DecisionKind(9)}, // not a record: neither encoder writes anything
	}
	tr := &psharp.Trace{}
	for i := 0; i < 700; i++ { // ≈ 350 KB through a 4 KB buffer
		tr.Decisions = append(tr.Decisions, records...)
		tr.Decisions = append(tr.Decisions, psharp.Decision{Kind: psharp.DecisionInt, Int: i})
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
	plain := &psharp.Trace{}
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

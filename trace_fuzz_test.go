package psharp

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeTrace hammers the "psharp-trace 2" text decoder with arbitrary
// input. The decoder is fed files from disk (psharp-test -replay), so it
// must reject malformed headers, truncated decision lines and corrupted
// fault records with an error — never a panic or an out-of-range index —
// and anything it does accept must survive an encode/decode round trip.
func FuzzDecodeTrace(f *testing.F) {
	// A well-formed trace covering every record shape.
	var good bytes.Buffer
	(&Trace{Decisions: []Decision{
		{Kind: DecisionSchedule, Machine: MachineRef{Seq: 3}},
		{Kind: DecisionBool, Bool: true},
		{Kind: DecisionBool, Bool: false},
		{Kind: DecisionInt, Int: 41},
		{Kind: DecisionFault, Fault: FaultAction{Kind: FaultNone}},
		{Kind: DecisionFault, Fault: FaultAction{Kind: FaultDrop}},
		{Kind: DecisionFault, Fault: FaultAction{Kind: FaultReorder}},
		{Kind: DecisionFault, Fault: FaultAction{
			Kind: FaultCrash, Machine: MachineRef{Seq: 2},
			Restart: true, PreserveMailbox: true,
		}},
	}, Types: []string{"", "Node", "Node"}}).Encode(&good)
	f.Add(good.String())

	// Malformed seeds steering the fuzzer at each rejection path.
	f.Add("")                                               // empty: missing header
	f.Add("s Node 3\n")                                     // headerless version-1 trace
	f.Add("psharp-trace\n")                                 // header missing its version
	f.Add("psharp-trace one\n")                             // non-numeric version
	f.Add("psharp-trace 1\ns Node 3\n")                     // pre-fault version
	f.Add("psharp-trace 99\n")                              // future version
	f.Add("psharp-trace 2\ns Node\n")                       // truncated schedule record
	f.Add("psharp-trace 2\ns Node -1\n")                    // negative seq
	f.Add("psharp-trace 2\nb 2\n")                          // boolean out of range
	f.Add("psharp-trace 2\ni\n")                            // integer missing value
	f.Add("psharp-trace 2\ni 999999999999999999999\n")      // integer overflow
	f.Add("psharp-trace 2\nf\n")                            // fault missing kind
	f.Add("psharp-trace 2\nf crash Node 2\n")               // truncated crash record
	f.Add("psharp-trace 2\nf crash Node 2 5 0\n")           // non-bit restart flag
	f.Add("psharp-trace 2\nf crash Node x 1 0\n")           // non-numeric seq
	f.Add("psharp-trace 2\nf boom\n")                       // unknown fault kind
	f.Add("psharp-trace 2\nq what\n")                       // unknown record
	f.Add("psharp-trace 2\ndrop none\n")                    // kind in the wrong column
	f.Add("psharp-trace 2\n# comment only\n")               // valid: empty trace
	f.Add("psharp-trace 2\ns Node 0\n")                     // seq 0 names no machine
	f.Add("psharp-trace 2\nf crash Node 0 1 0\n")           // crash of seq 0
	f.Add("psharp-trace 2\ns Node 2\ns Peer 2\n")           // one seq, two types
	f.Add("psharp-trace 2\ns Node 2\nf crash Peer 2 1 0\n") // one seq, two types across record kinds
	f.Add("psharp-trace 2\ns N 1099511627776\n")            // seq 2^40: a table out of proportion
	f.Add("psharp-trace 2\ni 2147483648\n")                 // integer past int32

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := DecodeTrace(strings.NewReader(input))
		if err != nil {
			if tr != nil {
				t.Fatal("error with non-nil trace")
			}
			return
		}
		// Accepted input must round-trip: encode what we decoded, decode it
		// again, and land on identical decisions.
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := DecodeTrace(&buf)
		if err != nil {
			t.Fatalf("decode(encode(decode(x))) failed: %v\ninput: %q", err, input)
		}
		if !slices.Equal(tr.Types, tr2.Types) {
			t.Fatalf("round trip changed the names table: %q vs %q", tr.Types, tr2.Types)
		}
		if len(tr.Decisions) != len(tr2.Decisions) {
			t.Fatalf("round trip changed decision count: %d vs %d", len(tr.Decisions), len(tr2.Decisions))
		}
		for i := range tr.Decisions {
			if tr.Decisions[i] != tr2.Decisions[i] {
				t.Fatalf("decision %d changed in round trip: %+v vs %+v", i, tr.Decisions[i], tr2.Decisions[i])
			}
		}
	})
}

package psharp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// TraceFormatVersion is the version of the trace text encoding this build
// reads and writes. Version 2 added the header line and fault-decision
// records; version-1 traces (headerless, pre-fault) are rejected by
// DecodeTrace because a fault-era controller would misreplay them.
const TraceFormatVersion = 2

// DecisionKind labels entries of a schedule trace.
type DecisionKind uint8

// Decision kinds.
const (
	// DecisionSchedule records which machine the scheduler picked.
	DecisionSchedule DecisionKind = iota
	// DecisionBool records a controlled boolean choice.
	DecisionBool
	// DecisionInt records a controlled integer choice.
	DecisionInt
	// DecisionFault records the answer to a fault query: which failure
	// action (possibly none) the strategy injected at this point.
	DecisionFault
)

// FaultKind enumerates the failure actions a strategy can inject when
// TestConfig.Faults is set.
type FaultKind uint8

// Fault kinds.
const (
	// FaultNone records that the strategy declined to inject a fault at
	// this query. Recording the declines keeps the trace a complete
	// transcript of every decision, so replay never has to guess where the
	// queries happened.
	FaultNone FaultKind = iota
	// FaultCrash halts a machine mid-schedule (at a schedule-level fault
	// point), optionally restarting it from its creation payload.
	FaultCrash
	// FaultDrop silently discards the message being sent.
	FaultDrop
	// FaultDuplicate delivers the message being sent twice.
	FaultDuplicate
	// FaultReorder enqueues the message being sent at the front of the
	// target's queue instead of the back, breaking FIFO delivery.
	FaultReorder
)

// String returns the record mnemonic used in the trace encoding.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultCrash:
		return "crash"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "dup"
	case FaultReorder:
		return "reorder"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultAction is a strategy's answer to a fault query: the failure to
// inject, if any. Machine, Restart and PreserveMailbox apply to FaultCrash
// only; the drop/duplicate/reorder kinds act on the message whose send
// triggered the query. It is 16 bytes.
type FaultAction struct {
	Kind            FaultKind
	Restart         bool       // FaultCrash: reboot it from its creation payload
	PreserveMailbox bool       // FaultCrash+Restart: keep queued events across the reboot
	Machine         MachineRef // FaultCrash: the machine to crash
}

// MachineRef names a machine inside one iteration by its creation index
// alone. Under the serialized testing runtime that index is deterministic,
// so within a trace it says which machine was meant; the type name, which
// the index implies, is kept once per trace in Trace.Types. Build one with
// MachineID.Ref.
type MachineRef struct {
	Seq uint64
}

// Decision is one scheduling or nondeterminism decision: a kind and the
// value of that kind, 32 bytes. A machine is named by its MachineRef; the
// trace holding the record says its type (Trace.Types).
type Decision struct {
	Kind    DecisionKind
	Bool    bool        // DecisionBool
	Int     int32       // DecisionInt: Context.RandomInt bounds n by math.MaxInt32
	Machine MachineRef  // DecisionSchedule
	Fault   FaultAction // DecisionFault
}

// Trace records every decision of one test iteration. Because machine IDs
// are assigned deterministically in creation order, replaying a trace with
// sct.NewReplay reproduces the iteration exactly — this is the paper's
// deterministic bug replay (Section 6.2).
//
// Types names the machines the records refer to: Types[i] is the type of
// the machine with Seq i+1 ("" for a Seq the trace does not name). A
// TestHarness fills it from the iteration's machines when the iteration
// ends; DecodeTrace from the records. The table is shared, never written in
// place: a harness that runs a machine of another type at a Seq an earlier
// trace named starts a new table, so a clone keeps reading the names of its
// own iteration.
type Trace struct {
	Decisions []Decision
	Types     []string
}

// ID returns the machine r names in this trace: r's Seq with the type Types
// gives it, "" if it gives none.
func (t *Trace) ID(r MachineRef) MachineID {
	id := MachineID{Seq: r.Seq}
	if r.Seq != 0 && r.Seq <= uint64(len(t.Types)) {
		id.Type = t.Types[r.Seq-1]
	}
	return id
}

// slot returns the record the next decision will occupy — zeroed, within the
// buffer's capacity, not yet counted in len — for the strategy to answer into
// (see DecisionStrategy); commit makes it part of the trace once the
// controller has validated it. A slot that is never committed leaves no
// trace: the next slot call hands out, and zeroes, the same record.
func (t *Trace) slot() *Decision {
	n := len(t.Decisions)
	if n == cap(t.Decisions) {
		t.Decisions = append(t.Decisions, Decision{})[:n]
	}
	d := &t.Decisions[:n+1][n]
	*d = Decision{}
	return d
}

func (t *Trace) commit() { t.Decisions = t.Decisions[:len(t.Decisions)+1] }

// Len returns the number of recorded decisions.
func (t *Trace) Len() int { return len(t.Decisions) }

// HasFaultDecisions reports whether the trace contains any fault-query
// records, i.e. whether it was recorded with TestConfig.Faults enabled.
// Replaying such a trace requires fault queries to be enabled again;
// sct.ReplayTrace and psharp-test -replay use this to turn them on
// automatically.
func (t *Trace) HasFaultDecisions() bool {
	for _, d := range t.Decisions {
		if d.Kind == DecisionFault {
			return true
		}
	}
	return false
}

// Clone returns a copy of the trace's decisions, sized to its length, that
// shares the names table: Types is never written in place (see Trace). A
// TestHarness reuses its decision buffer across iterations and hands it to
// the next harness when it closes, so callers that retain an
// IterationResult.Trace past the harness's next Run or its Close must clone
// it first.
func (t *Trace) Clone() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{Decisions: append([]Decision(nil), t.Decisions...), Types: t.Types}
}

// encodeWriters recycles Encode's buffered writers: every bug hunt encodes
// at least one trace, and a writer's buffer is 4 KB.
var encodeWriters = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

// Encode writes the trace in a line-oriented text format. The first line is
// a required header naming the format version; the records are
//
//	s <machine-type> <machine-seq>              scheduling pick
//	b 0|1                                       controlled boolean
//	i <value>                                   controlled integer
//	f none|drop|dup|reorder                     fault query answer (send point)
//	f crash <machine-type> <machine-seq> <restart 0|1> <keepq 0|1>
//
// A machine's type is looked up in Types; a record naming a Seq that Types
// does not name fails the encoding, with the records before it written.
// Records are appended digit by digit into the buffered writer's own free
// space rather than formatted, and the writer is recycled: a trace is
// thousands of records, and every bug hunt encodes at least one.
func (t *Trace) Encode(w io.Writer) error {
	// A failed write sticks to the writer (the next Write and Flush return
	// it) until Reset clears it.
	bw := encodeWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil) // do not keep w alive from the pool
		encodeWriters.Put(bw)
	}()
	bw.WriteString("psharp-trace ")
	bw.WriteString(strconv.Itoa(TraceFormatVersion)) // a small int: no allocation
	bw.WriteString("\n# records: s <type> <seq> | b 0|1 | i <value> | f none|drop|dup|reorder | f crash <type> <seq> <restart> <keepq>\n")
	bit := func(b bool) byte {
		if b {
			return '1'
		}
		return '0'
	}
	name := func(rec []byte, m MachineID) []byte {
		return strconv.AppendUint(append(append(rec, m.Type...), ' '), m.Seq, 10)
	}
	for i := range t.Decisions {
		d := &t.Decisions[i]
		var id MachineID
		named := true
		switch {
		case d.Kind == DecisionSchedule:
			id = t.ID(d.Machine)
		case d.Kind == DecisionFault && d.Fault.Kind == FaultCrash:
			id = t.ID(d.Fault.Machine)
		default:
			named = false
		}
		if named && id.Type == "" {
			bw.Flush()
			return fmt.Errorf("trace: decision %d names machine %d, whose type Types does not give", i, id.Seq)
		}
		// Room for the longest record's fixed part ("f crash ", a 20-digit
		// sequence number, two flags) beside the name: appending past the
		// writer's free space would reallocate the record.
		if bw.Available() < 40+len(id.Type) {
			bw.Flush()
		}
		rec := bw.AvailableBuffer()
		switch d.Kind {
		case DecisionSchedule:
			rec = name(append(rec, "s "...), id)
		case DecisionBool:
			rec = append(rec, 'b', ' ', bit(d.Bool))
		case DecisionInt:
			rec = strconv.AppendInt(append(rec, "i "...), int64(d.Int), 10)
		case DecisionFault:
			if d.Fault.Kind == FaultCrash {
				rec = name(append(rec, "f crash "...), id)
				rec = append(rec, ' ', bit(d.Fault.Restart), ' ', bit(d.Fault.PreserveMailbox))
			} else {
				rec = append(append(rec, "f "...), d.Fault.Kind.String()...)
			}
		default:
			continue
		}
		if _, err := bw.Write(append(rec, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// traceSeqSlack is how far past the input's length in bytes a machine Seq
// may reach in a trace DecodeTrace accepts. A record naming Seq n makes
// Types n entries long, so without a bound a 20-byte line could ask for a
// table of terabytes. A machine a program creates while it runs is a
// scheduling point, a record of its own, so only the machines setup creates
// can be named by a Seq beyond the records read so far: traceSeqSlack of
// them.
const traceSeqSlack = 1 << 16

// DecodeTrace parses the format produced by Encode. Traces without the
// "psharp-trace <version>" header — including every trace recorded before
// format version 2 introduced fault decisions — are rejected with a clear
// error rather than silently misreplayed; re-record them with this build.
//
// Types is rebuilt from the records, one string per distinct type name. A
// record naming Seq 0, a Seq another record names with another type, or a
// Seq more than traceSeqSlack past the bytes read so far is rejected with
// the number of its line.
func DecodeTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	names := map[string]string{} // interned type names
	sc := bufio.NewScanner(r)
	line, consumed := 0, 0
	sawHeader := false
	var f [traceMaxFields + 1][]byte

	// name resolves the machine a record names, checking the Seq against
	// the names table and entering the type there.
	name := func(typ, seqText []byte) (MachineRef, error) {
		seq, ok := parseTraceUint(seqText)
		switch {
		case !ok:
			return MachineRef{}, fmt.Errorf("trace line %d: bad seq %q", line, seqText)
		case seq == 0:
			return MachineRef{}, fmt.Errorf("trace line %d: machine seq 0 names no machine (seqs start at 1)", line)
		case seq > uint64(traceSeqSlack+consumed):
			return MachineRef{}, fmt.Errorf("trace line %d: machine seq %d is out of proportion to a trace of %d bytes so far", line, seq, consumed)
		}
		if seq > uint64(len(t.Types)) {
			t.Types = slices.Grow(t.Types, int(seq)-len(t.Types))[:seq]
		}
		switch have := t.Types[seq-1]; {
		case have == "":
			interned, ok := names[string(typ)]
			if !ok {
				interned = string(typ)
				names[interned] = interned
			}
			t.Types[seq-1] = interned
		case have != string(typ):
			return MachineRef{}, fmt.Errorf("trace line %d: machine %d has type %s here but %s on an earlier line", line, seq, typ, have)
		}
		return MachineRef{Seq: seq}, nil
	}
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		consumed += len(raw) + 1
		n := splitTraceFields(raw, &f)
		if n == 0 {
			continue
		}
		text := bytes.Trim(raw, traceSpace) // for error messages
		if !sawHeader {
			if string(f[0]) != "psharp-trace" || n != 2 {
				return nil, fmt.Errorf("trace line %d: missing 'psharp-trace %d' header — this looks like a pre-fault (version 1) trace or not a trace at all; re-record it with this build", line, TraceFormatVersion)
			}
			v, ok := parseTraceInt32(f[1])
			if !ok {
				return nil, fmt.Errorf("trace line %d: bad format version %q", line, f[1])
			}
			if int(v) != TraceFormatVersion {
				return nil, fmt.Errorf("trace line %d: unsupported trace format version %d (this build reads version %d)", line, v, TraceFormatVersion)
			}
			sawHeader = true
			continue
		}
		if f[0][0] == '#' {
			continue
		}
		var d Decision
		switch string(f[0]) {
		case "s":
			if n != 3 {
				return nil, fmt.Errorf("trace line %d: want 's <type> <seq>', got %q", line, text)
			}
			m, err := name(f[1], f[2])
			if err != nil {
				return nil, err
			}
			d = Decision{Kind: DecisionSchedule, Machine: m}
		case "b":
			if n != 2 || (string(f[1]) != "0" && string(f[1]) != "1") {
				return nil, fmt.Errorf("trace line %d: want 'b 0|1', got %q", line, text)
			}
			d = Decision{Kind: DecisionBool, Bool: f[1][0] == '1'}
		case "i":
			if n != 2 {
				return nil, fmt.Errorf("trace line %d: want 'i <value>', got %q", line, text)
			}
			v, ok := parseTraceInt32(f[1])
			if !ok {
				return nil, fmt.Errorf("trace line %d: bad value %q (want an int32)", line, f[1])
			}
			d = Decision{Kind: DecisionInt, Int: v}
		case "f":
			if n < 2 {
				return nil, fmt.Errorf("trace line %d: want 'f <kind>', got %q", line, text)
			}
			kind := FaultNone
			switch string(f[1]) {
			case "none":
			case "drop":
				kind = FaultDrop
			case "dup":
				kind = FaultDuplicate
			case "reorder":
				kind = FaultReorder
			case "crash":
				kind = FaultCrash
			default:
				return nil, fmt.Errorf("trace line %d: unknown fault kind %q", line, f[1])
			}
			if kind != FaultCrash {
				if n != 2 {
					return nil, fmt.Errorf("trace line %d: want 'f %s', got %q", line, f[1], text)
				}
				d = Decision{Kind: DecisionFault, Fault: FaultAction{Kind: kind}}
				break
			}
			if n != 6 {
				return nil, fmt.Errorf("trace line %d: want 'f crash <type> <seq> <restart> <keepq>', got %q", line, text)
			}
			restart, ok := parseTraceBit(f[4])
			if !ok {
				return nil, fmt.Errorf("trace line %d: bad restart flag: want 0 or 1, got %q", line, f[4])
			}
			keepq, ok := parseTraceBit(f[5])
			if !ok {
				return nil, fmt.Errorf("trace line %d: bad keepq flag: want 0 or 1, got %q", line, f[5])
			}
			m, err := name(f[2], f[3])
			if err != nil {
				return nil, err
			}
			d = Decision{Kind: DecisionFault, Fault: FaultAction{
				Kind:            FaultCrash,
				Machine:         m,
				Restart:         restart,
				PreserveMailbox: keepq,
			}}
		default:
			return nil, fmt.Errorf("trace line %d: unknown record %q", line, f[0])
		}
		t.Decisions = append(t.Decisions, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("trace: empty input, missing 'psharp-trace %d' header", TraceFormatVersion)
	}
	return t, nil
}

// traceSpace is what separates the fields of a trace line: the bytes a
// machine-type name may not contain (validateTypeName), so every name a
// runtime accepts reads back as one field.
const traceSpace = " \t\r\n"

// traceMaxFields is the most fields a record has ("f crash <type> <seq>
// <restart> <keepq>").
const traceMaxFields = 6

// splitTraceFields puts the fields of line into f without copying and
// returns their number: traceMaxFields+1 when there are more than
// traceMaxFields, the last slot then holding the first extra one.
func splitTraceFields(line []byte, f *[traceMaxFields + 1][]byte) int {
	n := 0
	for n <= traceMaxFields {
		i := 0
		for i < len(line) && strings.IndexByte(traceSpace, line[i]) >= 0 {
			i++
		}
		if i == len(line) {
			break
		}
		j := i
		for j < len(line) && strings.IndexByte(traceSpace, line[j]) < 0 {
			j++
		}
		f[n], line = line[i:j], line[j:]
		n++
	}
	return n
}

// parseTraceUint parses a decimal uint64: digits only, no sign.
func parseTraceUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' || v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// parseTraceInt32 parses a decimal int32 with an optional sign, as
// strconv.Atoi does.
func parseTraceInt32(b []byte) (int32, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg, b = b[0] == '-', b[1:]
	}
	u, ok := parseTraceUint(b)
	switch {
	case !ok:
		return 0, false
	case neg && u <= -math.MinInt32:
		return int32(-int64(u)), true
	case !neg && u <= math.MaxInt32:
		return int32(u), true
	}
	return 0, false
}

func parseTraceBit(b []byte) (bool, bool) {
	switch string(b) {
	case "0":
		return false, true
	case "1":
		return true, true
	}
	return false, false
}

package psharp

import (
	"bufio"
	"fmt"
	"io"
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
type DecisionKind int

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
type FaultKind int

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
// triggered the query.
type FaultAction struct {
	Kind            FaultKind
	Machine         MachineID // FaultCrash: the machine to crash
	Restart         bool      // FaultCrash: reboot it from its creation payload
	PreserveMailbox bool      // FaultCrash+Restart: keep queued events across the reboot
}

// Decision is one scheduling or nondeterminism decision.
type Decision struct {
	Kind    DecisionKind
	Machine MachineID   // DecisionSchedule
	Bool    bool        // DecisionBool
	Int     int         // DecisionInt
	Fault   FaultAction // DecisionFault
}

// Trace records every decision of one test iteration. Because machine IDs
// are assigned deterministically in creation order, replaying a trace with
// sct.NewReplay reproduces the iteration exactly — this is the paper's
// deterministic bug replay (Section 6.2).
type Trace struct {
	Decisions []Decision
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

// Clone returns a deep copy of the trace, sized to its length. A TestHarness
// reuses its trace buffer across iterations and hands it to the next harness
// when it closes, so callers that retain an IterationResult.Trace past the
// harness's next Run or its Close must clone it first.
func (t *Trace) Clone() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{Decisions: append([]Decision(nil), t.Decisions...)}
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
	id := func(rec []byte, m MachineID) []byte {
		return strconv.AppendUint(append(append(rec, m.Type...), ' '), m.Seq, 10)
	}
	for i := range t.Decisions {
		d := &t.Decisions[i]
		// Room for the longest record's fixed part ("f crash ", a 20-digit
		// sequence number, two flags) beside the names: appending past the
		// writer's free space would reallocate the record.
		if bw.Available() < 40+len(d.Machine.Type)+len(d.Fault.Machine.Type) {
			bw.Flush()
		}
		rec := bw.AvailableBuffer()
		switch d.Kind {
		case DecisionSchedule:
			rec = id(append(rec, "s "...), d.Machine)
		case DecisionBool:
			rec = append(rec, 'b', ' ', bit(d.Bool))
		case DecisionInt:
			rec = strconv.AppendInt(append(rec, "i "...), int64(d.Int), 10)
		case DecisionFault:
			if d.Fault.Kind == FaultCrash {
				rec = id(append(rec, "f crash "...), d.Fault.Machine)
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

// DecodeTrace parses the format produced by Encode. Traces without the
// "psharp-trace <version>" header — including every trace recorded before
// format version 2 introduced fault decisions — are rejected with a clear
// error rather than silently misreplayed; re-record them with this build.
func DecodeTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	add := func(d Decision) { t.Decisions = append(t.Decisions, d) }
	sc := bufio.NewScanner(r)
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !sawHeader {
			fields := strings.Fields(text)
			if fields[0] != "psharp-trace" || len(fields) != 2 {
				return nil, fmt.Errorf("trace line %d: missing 'psharp-trace %d' header — this looks like a pre-fault (version 1) trace or not a trace at all; re-record it with this build", line, TraceFormatVersion)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace line %d: bad format version %q", line, fields[1])
			}
			if v != TraceFormatVersion {
				return nil, fmt.Errorf("trace line %d: unsupported trace format version %d (this build reads version %d)", line, v, TraceFormatVersion)
			}
			sawHeader = true
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "s":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace line %d: want 's <type> <seq>', got %q", line, text)
			}
			seq, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace line %d: bad seq: %v", line, err)
			}
			add(Decision{Kind: DecisionSchedule, Machine: MachineID{Type: fields[1], Seq: seq}})
		case "b":
			if len(fields) != 2 || (fields[1] != "0" && fields[1] != "1") {
				return nil, fmt.Errorf("trace line %d: want 'b 0|1', got %q", line, text)
			}
			add(Decision{Kind: DecisionBool, Bool: fields[1] == "1"})
		case "i":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace line %d: want 'i <value>', got %q", line, text)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace line %d: bad value: %v", line, err)
			}
			add(Decision{Kind: DecisionInt, Int: v})
		case "f":
			if len(fields) < 2 {
				return nil, fmt.Errorf("trace line %d: want 'f <kind>', got %q", line, text)
			}
			switch fields[1] {
			case "none", "drop", "dup", "reorder":
				if len(fields) != 2 {
					return nil, fmt.Errorf("trace line %d: want 'f %s', got %q", line, fields[1], text)
				}
				kind := map[string]FaultKind{
					"none": FaultNone, "drop": FaultDrop, "dup": FaultDuplicate, "reorder": FaultReorder,
				}[fields[1]]
				add(Decision{Kind: DecisionFault, Fault: FaultAction{Kind: kind}})
			case "crash":
				if len(fields) != 6 {
					return nil, fmt.Errorf("trace line %d: want 'f crash <type> <seq> <restart> <keepq>', got %q", line, text)
				}
				seq, err := strconv.ParseUint(fields[3], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace line %d: bad seq: %v", line, err)
				}
				restart, err := parseTraceBit(fields[4])
				if err != nil {
					return nil, fmt.Errorf("trace line %d: bad restart flag: %v", line, err)
				}
				keepq, err := parseTraceBit(fields[5])
				if err != nil {
					return nil, fmt.Errorf("trace line %d: bad keepq flag: %v", line, err)
				}
				add(Decision{Kind: DecisionFault, Fault: FaultAction{
					Kind:            FaultCrash,
					Machine:         MachineID{Type: fields[2], Seq: seq},
					Restart:         restart,
					PreserveMailbox: keepq,
				}})
			default:
				return nil, fmt.Errorf("trace line %d: unknown fault kind %q", line, fields[1])
			}
		default:
			return nil, fmt.Errorf("trace line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("trace: empty input, missing 'psharp-trace %d' header", TraceFormatVersion)
	}
	return t, nil
}

func parseTraceBit(s string) (bool, error) {
	switch s {
	case "0":
		return false, nil
	case "1":
		return true, nil
	}
	return false, fmt.Errorf("want 0 or 1, got %q", s)
}

package psharp_test

// The bug corpus (testdata/bugs/): the first bug trace of each of the eight
// Table 2 buggy protocols under sct.NewRandom(1) with StopOnFirstBug and the
// protocol's MaxSteps and LivelockAsBug, and one fault-injected
// TwoPhaseCommitFT trace with crash records (the setup of
// TestFaultInjectionFindsCrashOnlyBug), each as Trace.Encode wrote it.
// bugs.json lists them with the configuration they replay under and the bug
// each ended in. The traces were recorded by the build whose Decision still
// carried a MachineID: they are a record of what that build wrote, not a
// golden to re-record.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

type corpusBug struct {
	Name          string `json:"name"`
	Trace         string `json:"trace"`
	MaxSteps      int    `json:"max_steps"`
	LivelockAsBug bool   `json:"livelock_as_bug"`
	Monitors      bool   `json:"monitors"`
	Kind          string `json:"bug_kind"`
	Machine       string `json:"bug_machine"`
	Monitor       string `json:"bug_monitor"`
	Message       string `json:"bug_message"`
}

func (e corpusBug) setup() func(*psharp.Runtime) {
	b := protocols.MustByName(e.Name, true)
	if e.Monitors {
		return b.SetupMonitored()
	}
	return b.Setup
}

func (e corpusBug) config() psharp.TestConfig {
	return psharp.TestConfig{MaxSteps: e.MaxSteps, LivelockAsBug: e.LivelockAsBug}
}

// loadBugCorpus returns the corpus entries and their encoded traces.
func loadBugCorpus(t *testing.T) ([]corpusBug, map[string][]byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "bugs", "bugs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bugs []corpusBug
	if err := json.Unmarshal(raw, &bugs); err != nil {
		t.Fatal(err)
	}
	traces := make(map[string][]byte, len(bugs))
	for _, e := range bugs {
		if traces[e.Name], err = os.ReadFile(filepath.Join("testdata", "bugs", e.Trace)); err != nil {
			t.Fatal(err)
		}
	}
	return bugs, traces
}

// TestBugCorpusReplays decodes every corpus trace, replays it to the bug it
// was recorded with — kind, machine, monitor, message — and requires both the
// decoded trace and the replayed one to encode to the recorded bytes.
func TestBugCorpusReplays(t *testing.T) {
	bugs, traces := loadBugCorpus(t)
	if len(bugs) != 9 {
		t.Fatalf("the corpus lists %d bugs, want the 8 Table 2 protocols and TwoPhaseCommitFT", len(bugs))
	}
	crashes := 0
	for _, e := range bugs {
		recorded := traces[e.Name]
		crashes += bytes.Count(recorded, []byte("\nf crash "))
		tr, err := psharp.DecodeTrace(bytes.NewReader(recorded))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		res := sct.ReplayTrace(e.setup(), tr, e.config())
		machine := ""
		if res.Bug != nil && !res.Bug.Machine.IsNil() {
			machine = res.Bug.Machine.String()
		}
		if res.Bug == nil || res.Bug.Kind.String() != e.Kind || machine != e.Machine ||
			res.Bug.Monitor != e.Monitor || res.Bug.Message != e.Message {
			t.Errorf("%s: replay ended in %v, want %s in %q (monitor %q): %s", e.Name, res.Bug, e.Kind, e.Machine, e.Monitor, e.Message)
			continue
		}
		for what, trace := range map[string]*psharp.Trace{"decoded": tr, "replayed": res.Trace} {
			if got := encodeTrace(t, trace); got != string(recorded) {
				t.Errorf("%s: the %s trace does not re-encode to the recorded bytes", e.Name, what)
			}
		}
	}
	if crashes == 0 {
		t.Error("no corpus trace holds a crash record")
	}
}

// TestBugCorpusRenamedMachineDiverges renames a machine in a recorded trace
// to another type the program registers. The records still name it by Seq,
// the Seq of an enabled machine, so only the types tell the two apart: the
// replay must stop at the first record naming it, as a divergence that names
// both types. Renaming it in one record of several is a trace DecodeTrace
// refuses.
func TestBugCorpusRenamedMachineDiverges(t *testing.T) {
	bugs, traces := loadBugCorpus(t)
	var chord corpusBug
	for _, e := range bugs {
		if e.Name == "Chord" {
			chord = e
		}
	}
	recorded := string(traces["Chord"])
	if !strings.HasPrefix(recorded[strings.Index(recorded, "\ns ")+1:], "s ChordNode 4\n") {
		t.Fatal("the Chord trace no longer starts by scheduling ChordNode 4")
	}
	renamed := strings.ReplaceAll(recorded, "s ChordNode 4\n", "s ChordClient 4\n")
	tr, err := psharp.DecodeTrace(strings.NewReader(renamed))
	if err != nil {
		t.Fatal(err)
	}
	msg := replayPanic(func() { sct.ReplayTrace(chord.setup(), tr, chord.config()) })
	for _, want := range []string{"replay divergence at decision 0", "ChordClient(4)", "ChordNode(4)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("replay of the renamed trace: %q, want it to contain %q", msg, want)
		}
	}

	once := strings.Replace(recorded, "s ChordNode 4\n", "s ChordClient 4\n", 1)
	if _, err := psharp.DecodeTrace(strings.NewReader(once)); err == nil || !strings.Contains(err.Error(), "machine 4 has type ChordNode here but ChordClient") {
		t.Errorf("DecodeTrace of one renamed record: %v", err)
	}

	// A crash record is checked the same way, against the crashable set.
	crash := &psharp.Trace{
		Decisions: []psharp.Decision{{Kind: psharp.DecisionFault, Fault: psharp.FaultAction{Kind: psharp.FaultCrash, Machine: psharp.MachineRef{Seq: 2}}}},
		Types:     []string{"Coordinator", "Participant"},
	}
	rep := sct.NewReplay(crash)
	rep.PrepareIteration(0)
	msg = replayPanic(func() {
		rep.Decide(&psharp.Choice{Kind: psharp.ChoiceFault, Point: psharp.FaultPointSchedule, Eligible: true,
			Crashable: []psharp.MachineID{{Type: "Coordinator", Seq: 1}, {Type: "Storage", Seq: 2}}}, &psharp.Decision{})
	})
	if !strings.Contains(msg, "divergence") || !strings.Contains(msg, "Participant(2)") || !strings.Contains(msg, "Storage(2)") {
		t.Errorf("replay of a crash of a renamed machine: %q", msg)
	}
}

// replayPanic runs f and returns the message it panicked with ("" if none).
func replayPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	f()
	return ""
}

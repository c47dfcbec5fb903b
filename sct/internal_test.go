package sct

import (
	"bytes"
	"slices"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/internal/splitmix"
)

func TestRaceSetDedupsPreservingOrder(t *testing.T) {
	var s raceSet
	s.addAll([]string{"b", "a", "b", "c", "a", "b"})
	got := s.list
	want := []string{"b", "a", "c"}
	if len(got) != len(want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v, want %v", got, want)
		}
	}
}

func TestShardQuotaPartitionsBudget(t *testing.T) {
	for _, tc := range []struct{ budget, workers int }{
		{10, 3}, {10, 10}, {7, 2}, {1, 1}, {100, 7},
	} {
		sum := 0
		for w := 0; w < tc.workers; w++ {
			q := shardQuota(tc.budget, w, tc.workers)
			sum += q
			// Worker w's shard is {w, w+n, ...}: quota is exact, not approximate.
			count := 0
			for g := w; g < tc.budget; g += tc.workers {
				count++
			}
			if q != count {
				t.Errorf("shardQuota(%d, %d, %d) = %d, want %d", tc.budget, w, tc.workers, q, count)
			}
		}
		if sum != tc.budget {
			t.Errorf("quotas for budget %d over %d workers sum to %d", tc.budget, tc.workers, sum)
		}
	}
}

func TestFingerprintDistinguishesTraces(t *testing.T) {
	mk := func(build func(tr *psharp.Trace)) uint64 {
		tr := &psharp.Trace{}
		build(tr)
		return fingerprintTrace(tr)
	}
	id1 := psharp.MachineRef{Seq: 1}
	id2 := psharp.MachineRef{Seq: 2}
	base := mk(func(tr *psharp.Trace) {
		tr.Decisions = []psharp.Decision{
			{Kind: psharp.DecisionSchedule, Machine: id1},
			{Kind: psharp.DecisionBool, Bool: true},
			{Kind: psharp.DecisionInt, Int: 3},
		}
	})
	same := mk(func(tr *psharp.Trace) {
		tr.Decisions = []psharp.Decision{
			{Kind: psharp.DecisionSchedule, Machine: id1},
			{Kind: psharp.DecisionBool, Bool: true},
			{Kind: psharp.DecisionInt, Int: 3},
		}
	})
	if base != same {
		t.Error("identical traces hash differently")
	}
	for name, other := range map[string]uint64{
		"different machine": mk(func(tr *psharp.Trace) {
			tr.Decisions = []psharp.Decision{
				{Kind: psharp.DecisionSchedule, Machine: id2},
				{Kind: psharp.DecisionBool, Bool: true},
				{Kind: psharp.DecisionInt, Int: 3},
			}
		}),
		"different bool": mk(func(tr *psharp.Trace) {
			tr.Decisions = []psharp.Decision{
				{Kind: psharp.DecisionSchedule, Machine: id1},
				{Kind: psharp.DecisionBool, Bool: false},
				{Kind: psharp.DecisionInt, Int: 3},
			}
		}),
		"truncated": mk(func(tr *psharp.Trace) {
			tr.Decisions = []psharp.Decision{
				{Kind: psharp.DecisionSchedule, Machine: id1},
				{Kind: psharp.DecisionBool, Bool: true},
			}
		}),
	} {
		if other == base {
			t.Errorf("%s trace collides with base", name)
		}
	}

	// Fault records: every field Trace.Encode writes must tell two traces
	// apart, and a value must not read the same under another kind (an
	// integer 1, a true, machine 1, a drop).
	fault := func(f psharp.FaultAction) psharp.Decision {
		return psharp.Decision{Kind: psharp.DecisionFault, Fault: f}
	}
	seen := map[uint64]string{}
	for name, d := range map[string]psharp.Decision{
		"schedule 1":            {Kind: psharp.DecisionSchedule, Machine: id1},
		"schedule 2":            {Kind: psharp.DecisionSchedule, Machine: id2},
		"true":                  {Kind: psharp.DecisionBool, Bool: true},
		"false":                 {Kind: psharp.DecisionBool},
		"int 0":                 {Kind: psharp.DecisionInt},
		"int 1":                 {Kind: psharp.DecisionInt, Int: 1},
		"int 2":                 {Kind: psharp.DecisionInt, Int: 2},
		"none":                  fault(psharp.FaultAction{}),
		"drop":                  fault(psharp.FaultAction{Kind: psharp.FaultDrop}),
		"dup":                   fault(psharp.FaultAction{Kind: psharp.FaultDuplicate}),
		"reorder":               fault(psharp.FaultAction{Kind: psharp.FaultReorder}),
		"crash 1":               fault(psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id1}),
		"crash 2":               fault(psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id2}),
		"crash 1 restart":       fault(psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id1, Restart: true}),
		"crash 1 restart keepq": fault(psharp.FaultAction{Kind: psharp.FaultCrash, Machine: id1, Restart: true, PreserveMailbox: true}),
	} {
		fp := mk(func(tr *psharp.Trace) {
			tr.Decisions = []psharp.Decision{{Kind: psharp.DecisionSchedule, Machine: id1}, d, {Kind: psharp.DecisionSchedule, Machine: id2}}
		})
		if other, dup := seen[fp]; dup {
			t.Errorf("traces differing in one record (%s, %s) share a fingerprint", name, other)
		}
		seen[fp] = name
	}
}

// TestFingerprintMatchesEncodingOracle is the oracle for the one-word-per-
// decision fingerprint: over 2 000 random schedules of each of three
// protocols — one of them with crashes, drops, duplicates and reorders
// injected — two schedules share a fingerprint exactly when Trace.Encode
// writes the same bytes for them. Encode spells every field out, the
// machine's type name included; the fingerprint leaves the name out.
func TestFingerprintMatchesEncodingOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults bool
	}{{"BoundedAsync", false}, {"Chord", false}, {"TwoPhaseCommitFT", true}} {
		b := protocols.MustByName(tc.name, true)
		var strategy Strategy = NewRandom(7)
		cfg := psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
		if tc.faults {
			strategy = NewFaultInjector(strategy, FaultOptions{Budget: 2, Seed: 7, Horizon: 64, Immune: b.FaultImmune, Restart: true, PreserveMailbox: true})
			cfg.Faults = &psharp.FaultConfig{Immune: b.FaultImmune}
		}
		cfg.Strategy = strategy
		h := psharp.NewTestHarness(b.Setup)
		fingerprints, encodings := map[uint64]struct{}{}, map[string]struct{}{}
		var buf bytes.Buffer
		faultRecords := 0
		for i := 0; i < 2000; i++ {
			strategy.PrepareIteration(i)
			tr := h.Run(cfg).Trace
			buf.Reset()
			if err := tr.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			fingerprints[fingerprintTrace(tr)] = struct{}{}
			encodings[buf.String()] = struct{}{}
			for _, d := range tr.Decisions {
				if d.Kind == psharp.DecisionFault && d.Fault.Kind != psharp.FaultNone {
					faultRecords++
				}
			}
		}
		h.Close()
		if len(fingerprints) != len(encodings) {
			t.Errorf("%s: 2000 schedules have %d distinct fingerprints and %d distinct encodings", tc.name, len(fingerprints), len(encodings))
		}
		if len(encodings) < 100 || tc.faults != (faultRecords > 0) {
			t.Errorf("%s: %d distinct schedules, %d injected faults: the oracle is not exercised", tc.name, len(encodings), faultRecords)
		}
	}
}

func TestFingerprintSetConcurrentInserts(t *testing.T) {
	var s fingerprintSet
	done := make(chan int)
	for g := 0; g < 8; g++ {
		go func(g int) {
			fresh := 0
			for i := 0; i < 1000; i++ {
				// Every goroutine inserts the same 1000 values.
				if s.insert(uint64(i) * splitmix.Golden) {
					fresh++
				}
			}
			done <- fresh
		}(g)
	}
	total := 0
	for g := 0; g < 8; g++ {
		total += <-done
	}
	if total != 1000 || s.size() != 1000 {
		t.Fatalf("fresh inserts = %d, size = %d, want 1000", total, s.size())
	}
}

// TestFaultInjectorCloneForWorkerIsTheEngineShard: a FaultInjector cloned
// for worker w of n explores what the engine's worker w explores, which
// wraps the inner strategy's clone in an injector of its own sharded the
// same way (RunParallel): over TwoPhaseCommitFT, the first 50 iterations of
// the shard have equal schedules and inject equal faults, for every w.
func TestFaultInjectorCloneForWorkerIsTheEngineShard(t *testing.T) {
	const workers, iterations = 3, 50
	b := protocols.MustByName("TwoPhaseCommitFT", true)
	opts := FaultOptions{Budget: 2, Seed: 11, Immune: b.FaultImmune, Restart: true, PreserveMailbox: true}
	// shard runs a worker's first iterations and returns each one's
	// fingerprint and fault counts.
	shard := func(s Strategy) (fps []uint64, stats []psharp.FaultStats) {
		h := psharp.NewTestHarness(b.Setup)
		defer h.Close()
		cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug,
			Faults: &psharp.FaultConfig{Immune: b.FaultImmune}}
		for i := range iterations {
			if !s.PrepareIteration(i) {
				t.Fatalf("iteration %d refused", i)
			}
			res := h.Run(cfg)
			fps, stats = append(fps, fingerprintTrace(res.Trace)), append(stats, res.Faults)
		}
		return fps, stats
	}
	injected := 0
	var first []uint64
	for w := range workers {
		cloneFPs, cloneStats := shard(NewFaultInjector(NewRandom(11), opts).CloneForWorker(w, workers))
		engineFPs, engineStats := shard(newFaultInjector(NewRandom(11).CloneForWorker(w, workers), opts, w, workers))
		for i := range iterations {
			if cloneFPs[i] != engineFPs[i] || cloneStats[i] != engineStats[i] {
				t.Errorf("worker %d of %d, iteration %d: the clone ran schedule %#x injecting %+v, the engine %#x injecting %+v",
					w, workers, i, cloneFPs[i], cloneStats[i], engineFPs[i], engineStats[i])
				break
			}
		}
		for _, s := range cloneStats {
			injected += s.Total()
		}
		if w == 0 {
			first = cloneFPs
		} else if slices.Equal(cloneFPs, first) {
			t.Errorf("workers 0 and %d explored the same schedules: the clone is not sharded", w)
		}
	}
	if injected == 0 {
		t.Fatal("no fault injected: the comparison shows nothing")
	}
}

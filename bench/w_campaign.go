package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/journal"
	"github.com/psharp-go/psharp/sct"
)

// campaign_full: every optional layer on at once, and the only workload
// with more than one worker. The crash-tolerant two-phase commit (buggy)
// with its specification monitor, a fault budget of two per schedule,
// telemetry, a durable journal at the default fsync cadence, and two static
// workers under the random scheduler. A round is one whole campaign, from
// journal.Create to Close, as a user runs it.
const (
	campaignSchedules = 6000
	campaignWorkers   = 2
)

type campaignFull struct {
	seed  uint64
	scale int
	b     protocols.Benchmark
	dir   string // parent of the per-campaign journal directories
	n     int
}

// campaignLayers selects which optional layers a campaign runs with; the
// workload turns all of them on, the probes one at a time.
type campaignLayers struct {
	monitors, faults, telemetry, journal bool
	workers                              int
}

var allLayers = campaignLayers{true, true, true, true, campaignWorkers}

func setupCampaignFull(seed uint64, scale int) (instance, error) {
	dir, err := os.MkdirTemp("", "campaign_full-*")
	if err != nil {
		return nil, err
	}
	w := &campaignFull{seed: seed, scale: scale, b: protocols.MustByName("TwoPhaseCommitFT", true), dir: dir}
	if _, err := w.campaign(nil, w.b, allLayers, scaled(campaignSchedules, 5*scale, 8)); err != nil {
		return nil, err
	}
	return w, nil
}

type campaignRun struct {
	rep          sct.Report
	wall         time.Duration
	journalBytes int64
	dir          string
}

func (r campaignRun) elapsed() time.Duration { return r.wall }

// campaign runs one campaign of b with the selected layers and checks the
// journal against the report.
func (w *campaignFull) campaign(tr *tracer, b protocols.Benchmark, on campaignLayers, schedules int) (campaignRun, error) {
	var run campaignRun
	setup := b.Setup
	if on.monitors {
		setup = b.SetupMonitored()
	}
	opts := sct.ParallelOptions{Options: sctOptions(b, sct.NewRandom(w.seed), schedules), Workers: on.workers}
	if on.faults {
		opts.Faults = sct.FaultOptions{Budget: 2, Seed: subseed(w.seed, 1), Restart: true, Immune: b.FaultImmune}
	}
	w.n++
	run.dir = filepath.Join(w.dir, fmt.Sprintf("c%d", w.n))

	start := time.Now()
	var jc *journal.Campaign
	var err error
	tr.do("campaign", func() {
		if on.telemetry {
			opts.Telemetry = sct.NewTelemetry(0)
		}
		if on.journal {
			meta := journal.Meta{Benchmark: b.ID(), Strategy: "random", Seed: w.seed, Workers: on.workers, ShardCount: 1, MaxSteps: b.MaxSteps, FaultBudget: opts.Faults.Budget}
			tr.do("journal.Create", func() { jc, err = journal.Create(run.dir, meta, journal.Options{}) })
			if err != nil {
				return
			}
			opts.Journal = jc
		}
		tr.do("sct.RunParallel", func() { run.rep = sct.RunParallel(setup, opts).Report })
		if jc != nil {
			tr.do("journal.Close", func() { err = jc.Close() })
		}
	})
	run.wall = time.Since(start)
	if err != nil {
		return run, fmt.Errorf("campaign_full: journal: %w", err)
	}
	if run.rep.Interrupted || run.rep.Iterations != schedules {
		return run, fmt.Errorf("campaign_full: ran %d of %d schedules", run.rep.Iterations, schedules)
	}
	if jc != nil {
		st, err := journal.ReadState(run.dir)
		if err != nil {
			return run, fmt.Errorf("campaign_full: journal: %w", err)
		}
		if st.DistinctSchedules != run.rep.DistinctSchedules {
			return run, fmt.Errorf("campaign_full: journal holds %d fingerprints, the report %d distinct schedules", st.DistinctSchedules, run.rep.DistinctSchedules)
		}
		entries, err := os.ReadDir(run.dir)
		if err != nil {
			return run, err
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				run.journalBytes += info.Size()
			}
		}
	}
	return run, nil
}

func (w *campaignFull) round(tr *tracer, rr *roundResult) error {
	schedules := scaled(campaignSchedules, w.scale, 8)
	run, err := w.campaign(tr, w.b, allLayers, schedules)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(run.dir); err != nil {
		return err
	}
	rr.add(cell{name: w.b.Name, ops: int64(schedules), steps: run.rep.TotalSchedulingPoints, wall: run.wall})
	rr.count("buggy", int64(run.rep.BuggyIterations))
	rr.count("distinct", int64(run.rep.DistinctSchedules))
	rr.count("faults", int64(run.rep.Faults.Total()))
	return nil
}

func (w *campaignFull) close() error { return os.RemoveAll(w.dir) }

// layers turns the optional layers on one at a time over a one-worker,
// all-off campaign of the correct variant. Monitors, telemetry and the
// journal make no scheduling decisions, so those pairs must run identical
// schedules; faults change the schedules and are compared per scheduling
// point.
func (w *campaignFull) layers(tr *tracer, rounds []roundResult, out map[string]float64) error {
	correct := protocols.MustByName("TwoPhaseCommitFT", false)
	schedules := scaled(campaignSchedules, w.scale, 8)
	var err error
	probe := func(b protocols.Benchmark, on campaignLayers) func() campaignRun {
		return func() campaignRun {
			run, e := w.campaign(nil, b, on, schedules)
			if e != nil && err == nil {
				err = e
			}
			return run
		}
	}
	var runs []campaignRun
	tr.do("probe.layers", func() {
		runs = interleave(3,
			probe(correct, campaignLayers{workers: 1}),
			probe(correct, campaignLayers{workers: 1, monitors: true}),
			probe(correct, campaignLayers{workers: 1, faults: true}),
			probe(correct, campaignLayers{workers: 1, telemetry: true}),
			probe(correct, campaignLayers{workers: 1, journal: true}))
	})
	if err != nil {
		return err
	}
	base, mon, flt, tel, jrn := runs[0], runs[1], runs[2], runs[3], runs[4]
	for name, r := range map[string]campaignRun{"monitor": mon, "telemetry": tel, "journal": jrn} {
		if r.rep.TotalSchedulingPoints != base.rep.TotalSchedulingPoints || r.rep.DistinctSchedules != base.rep.DistinctSchedules {
			return fmt.Errorf("campaign_full: %s ablation changed the schedules (%d points, %d distinct; without %d, %d)", name,
				r.rep.TotalSchedulingPoints, r.rep.DistinctSchedules, base.rep.TotalSchedulingPoints, base.rep.DistinctSchedules)
		}
	}
	nsPerPoint := func(r campaignRun) float64 {
		return float64(r.wall.Nanoseconds()) / float64(r.rep.TotalSchedulingPoints)
	}
	nsPerIter := func(r campaignRun) float64 { return float64(r.wall.Nanoseconds()) / float64(schedules) }
	out["psharp.monitor_ns_per_sp"] = nsPerPoint(mon) - nsPerPoint(base)
	out["psharp.fault_ns_per_sp"] = nsPerPoint(flt) - nsPerPoint(base)
	out["psharp.faults_injected_per_iter"] = float64(flt.rep.Faults.Total()) / float64(schedules)
	out["sct.telemetry_ns_per_iter"] = nsPerIter(tel) - nsPerIter(base)
	out["journal.ns_per_iter"] = nsPerIter(jrn) - nsPerIter(base)
	out["journal.bytes_per_iter"] = float64(jrn.journalBytes) / float64(schedules)

	// Resuming the finished campaign: recovery reads every record back.
	meta := journal.Meta{Benchmark: correct.ID(), Strategy: "random", Seed: w.seed, Workers: 1, ShardCount: 1, MaxSteps: correct.MaxSteps}
	start := time.Now()
	var jc *journal.Campaign
	tr.do("probe.journal_resume", func() { jc, err = journal.Resume(jrn.dir, meta, journal.Options{}) })
	if err != nil {
		return fmt.Errorf("campaign_full: resume: %w", err)
	}
	out["journal.resume_ms"] = float64(time.Since(start).Microseconds()) / 1e3
	if got := len(jc.Fingerprints()); got != jrn.rep.DistinctSchedules {
		return fmt.Errorf("campaign_full: resume recovered %d fingerprints of %d", got, jrn.rep.DistinctSchedules)
	}
	if err := jc.Close(); err != nil {
		return err
	}

	if err := w.logCosts(tr, out); err != nil {
		return err
	}

	// Parallel efficiency of the all-on configuration.
	one := allLayers
	one.workers = 1
	tr.do("probe.parallel", func() { runs = interleave(3, probe(w.b, one), probe(w.b, allLayers)) })
	if err != nil {
		return err
	}
	out["sct.parallel_efficiency"] = runs[0].wall.Seconds() / (float64(campaignWorkers) * runs[1].wall.Seconds())
	return nil
}

// logCosts times the journal's record file alone: buffered appends that
// sync only on close, then appends that fsync each record.
func (w *campaignFull) logCosts(tr *tracer, out map[string]float64) error {
	payload := make([]byte, 64)
	appendAll := func(name string, syncEvery, records int) (time.Duration, error) {
		log, err := journal.CreateLog(filepath.Join(w.dir, name), syncEvery)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < records; i++ {
			if err := log.Append(1, payload); err != nil {
				log.Close()
				return 0, err
			}
		}
		d := time.Since(start)
		return d, log.Close()
	}
	var buffered, synced time.Duration
	var err error
	records, syncs := scaled(200000, w.scale, 100), scaled(200, w.scale, 4)
	tr.do("probe.journal_log", func() {
		if buffered, err = appendAll("append.log", -1, records); err == nil {
			synced, err = appendAll("fsync.log", 1, syncs)
		}
	})
	if err != nil {
		return fmt.Errorf("campaign_full: journal log: %w", err)
	}
	out["journal.append_ns_per_record"] = float64(buffered.Nanoseconds()) / float64(records)
	out["journal.fsync_ms"] = float64(synced.Microseconds()) / 1e3 / float64(syncs)
	return nil
}

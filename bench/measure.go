package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cell is one independently timed part of a round: a protocol, a program,
// a (protocol, strategy) pair, a phase. ops_per_s is the geometric mean of
// the cells' rates, so a cell that gets slower shows by its own ratio
// whatever share of the round's time it takes.
type cell struct {
	name   string
	ops    int64 // operations completed (see README for what one is, per workload)
	failed int64 // operations that did not do what they should
	steps  int64 // finest unit of work the workload counts (scheduling points, interpreter steps, ...)
	wall   time.Duration
	// mallocs and bytes are the heap allocations made since the previous
	// cell ended, as a count and in bytes; read on untraced runs only.
	mallocs, bytes uint64
}

// count is an exact number a round produces that must repeat on every
// round of a run and on every run with the same seed.
type count struct {
	name  string
	value int64
}

type roundResult struct {
	cells  []cell
	counts []count
	// countMallocs makes add read the allocation counter at every cell
	// boundary (a stop-the-world of some tens of microseconds, outside the
	// cells' timed regions).
	countMallocs           bool
	lastMallocs, lastBytes uint64
}

func newRound(countMallocs bool) *roundResult {
	r := &roundResult{countMallocs: countMallocs}
	if countMallocs {
		r.lastMallocs, r.lastBytes = allocated()
	}
	return r
}

// allocated returns the process's cumulative heap allocations, as a count
// and in bytes.
func allocated() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// add closes a cell: everything allocated since the previous add is its.
func (r *roundResult) add(c cell) {
	if r.countMallocs {
		mallocs, bytes := allocated()
		c.mallocs, c.bytes = mallocs-r.lastMallocs, bytes-r.lastBytes
		r.lastMallocs, r.lastBytes = mallocs, bytes
	}
	r.cells = append(r.cells, c)
}

func (r *roundResult) count(name string, v int64) { r.counts = append(r.counts, count{name, v}) }

func (r *roundResult) ops() (ops, failed, steps int64) {
	for _, c := range r.cells {
		ops += c.ops
		failed += c.failed
		steps += c.steps
	}
	return
}

func (r *roundResult) wall() time.Duration {
	var d time.Duration
	for _, c := range r.cells {
		d += c.wall
	}
	return d
}

// sameCounts reports the first difference between the exact counts of two
// rounds (cell ops, failures, steps and the declared counts), or "".
func (r *roundResult) sameCounts(o *roundResult) string {
	if len(r.cells) != len(o.cells) || len(r.counts) != len(o.counts) {
		return "different shape"
	}
	for i, c := range r.cells {
		d := o.cells[i]
		if c.name != d.name || c.ops != d.ops || c.failed != d.failed || c.steps != d.steps {
			return fmt.Sprintf("cell %s: ops/failed/steps %d/%d/%d vs %d/%d/%d", c.name, c.ops, c.failed, c.steps, d.ops, d.failed, d.steps)
		}
	}
	for i, c := range r.counts {
		if d := o.counts[i]; c != d {
			return fmt.Sprintf("count %s: %d vs %d", c.name, c.value, d.value)
		}
	}
	return ""
}

// instance is one set-up workload. round runs the workload's fixed,
// seeded operation counts once — every round of an instance does identical
// work — timing each cell and checking outputs; an error is a failed
// output check. layers runs the traced pass's ablation probes and derives
// the workload's per-layer metrics from them, from the spans and from the
// pass's rounds (every second one of which was traced).
type instance interface {
	round(tr *tracer, rr *roundResult) error
	layers(tr *tracer, rounds []roundResult, out map[string]float64) error
	close() error
}

// workload is a named constructor. setup does everything a run needs
// before its first timed round — corpus load, compilation, temp dirs and a
// warm-up pass — and is what setup_s times. scale divides every operation
// count (1 for the benchmark; the package's tests use a large divisor).
type workload struct {
	name  string
	setup func(seed uint64, scale int) (instance, error)
	// roundShare is the part of a traced run's time spent on rounds (half
	// of them traced); the rest is left for the ablation probes.
	roundShare float64
}

func workloads() []workload {
	return []workload{
		{"table2_random", setupTable2Random, 0.3},
		{"table2_reduced", setupTable2Reduced, 0.4},
		{"bughunt", setupBughunt, 0.5},
		{"campaign_full", setupCampaignFull, 0.3},
		{"table1_analysis", setupTable1, 0.8},
		{"psl_interp", setupPSLInterp, 0.5},
		{"prod_runtime", setupProdRuntime, 0.7},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setupReps = 5 // set-ups per run; setup_s is their median
	minRounds = 3
)

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	rounds            []roundResult
	setups            []time.Duration
	cal               calibration
	spans             *tracer // traced runs only
	checkErr          error   // a failed output or determinism check
}

// runUntraced sets the workload up setupReps times, then repeats its round
// until seconds have passed (at least minRounds), and computes the
// end-to-end metrics from per-cell medians over the rounds.
func runUntraced(w workload, seed uint64, seconds float64, scale int) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		out.cal.sample()
		start := time.Now()
		var err error
		if inst, err = w.setup(seed, scale); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		out.setups = append(out.setups, time.Since(start))
	}
	defer inst.close()

	begin := time.Now()
	for len(out.rounds) < minRounds || time.Since(begin).Seconds() < seconds {
		if !out.addRound(inst, nil, true) {
			break
		}
	}
	if len(out.rounds) == 0 {
		return out, nil
	}
	first := &out.rounds[0]
	_, _, steps := first.ops()
	var logRate, logAllocs, logBytes, totalWall float64
	for i, c := range first.cells {
		wall, mallocs, bytes := out.cellMedian(i)
		logRate += math.Log(float64(c.ops) / wall.Seconds())
		logAllocs += math.Log(math.Max(mallocs, 1) / float64(c.ops))
		logBytes += math.Log(math.Max(bytes, 1) / float64(c.ops))
		totalWall += wall.Seconds()
	}
	cells, speed := float64(len(first.cells)), out.cal.speed()
	out.metrics["setup_s"] = medianDuration(out.setups).Seconds() * speed
	out.metrics["ops_per_s"] = math.Exp(logRate/cells) / speed
	out.metrics["ns_per_step"] = totalWall * 1e9 / float64(steps) * speed
	out.metrics["allocs_per_op"] = math.Exp(logAllocs / cells)
	out.metrics["alloc_bytes_per_op"] = math.Exp(logBytes / cells)
	return out, nil
}

// addRound runs one round and keeps it, unless an output check fails or
// the round's exact counts differ from the first round's; it reports
// whether the run may go on. Every round starts from a collected heap, so
// that the garbage one round leaves is not billed to the next.
func (o *outcome) addRound(inst instance, tr *tracer, countMallocs bool) bool {
	runtime.GC()
	o.cal.sample()
	rr := newRound(countMallocs)
	var err error
	tr.do("round", func() { err = inst.round(tr, rr) })
	if err != nil {
		o.checkErr = err
		return false
	}
	o.rounds = append(o.rounds, *rr)
	ops, failed, _ := rr.ops()
	o.attempted += ops
	o.failed += failed
	if diff := o.rounds[0].sameCounts(rr); diff != "" {
		o.checkErr = fmt.Errorf("round %d does not repeat round 0: %s", len(o.rounds)-1, diff)
		return false
	}
	return true
}

// cellMedian returns the medians over rounds of cell i's wall time,
// allocation count and allocated bytes.
func (o *outcome) cellMedian(i int) (wall time.Duration, mallocs, bytes float64) {
	median := func(of func(c *cell) float64) float64 {
		vs := make([]float64, len(o.rounds))
		for r := range o.rounds {
			vs[r] = of(&o.rounds[r].cells[i])
		}
		return quantile(vs, 0.5)
	}
	return time.Duration(median(func(c *cell) float64 { return float64(c.wall) })),
		median(func(c *cell) float64 { return float64(c.mallocs) }),
		median(func(c *cell) float64 { return float64(c.bytes) })
}

// runTraced is the separate pass that produces the per-layer metrics. It
// alternates untraced and traced rounds for roundShare of the time (their
// difference is the tracing overhead), then runs the workload's probes.
func runTraced(w workload, seed uint64, seconds float64, scale int) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64), spans: newTracer(w.name)}
	inst, err := w.setup(seed, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()

	var plain, traced []time.Duration
	begin := time.Now()
	for len(traced) < 2 || time.Since(begin).Seconds() < seconds*w.roundShare {
		tr := out.spans
		if len(out.rounds)%2 == 0 {
			tr = nil
		}
		out.spans.round = len(out.rounds)
		start := time.Now()
		if !out.addRound(inst, tr, false) {
			return out, nil
		}
		if d := time.Since(start); tr == nil {
			plain = append(plain, d)
		} else {
			traced = append(traced, d)
		}
	}
	out.metrics["trace.overhead_pct"] = 100 * (medianDuration(traced).Seconds()/medianDuration(plain).Seconds() - 1)
	out.metrics["trace.spans_per_round"] = float64(len(out.spans.spans)) / float64(len(traced))
	out.metrics["trace.machine_speed"] = out.cal.speed()
	out.metrics["trace.peak_rss_mb"] = peakRSSMB()
	if err := inst.layers(out.spans, out.rounds, out.metrics); err != nil {
		out.checkErr = err
	}
	return out, nil
}

// timed is a measurement that knows how long it took.
type timed interface{ elapsed() time.Duration }

// interleave runs the given measurements in turn, reps times over, and
// returns the fastest run of each. The sides of an ablation are measured
// this way because their difference is small against the machine's noise:
// alternating them lets slow drift fall on all sides alike, and since noise
// only ever adds time, the fastest run is the one nearest the code's cost.
func interleave[T timed](reps int, fs ...func() T) []T {
	best := make([]T, len(fs))
	for r := 0; r < reps; r++ {
		for i, f := range fs {
			if run := f(); r == 0 || run.elapsed() < best[i].elapsed() {
				best[i] = run
			}
		}
	}
	return best
}

// quantile returns the q-quantile of values by linear interpolation
// between order statistics; values is not modified.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func medianDuration(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(quantile(fs, 0.5))
}

// peakRSSMB is the process's high-water resident set, which Linux reports
// in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// scaled divides a reference operation count by the scale, keeping at
// least floor.
func scaled(n, scale, floor int) int {
	if n /= scale; n < floor {
		return floor
	}
	return n
}

// subseed derives an independent 64-bit seed from the run's seed and a
// stream index (splitmix64 finalizer), so every strategy in a run gets its
// own reproducible stream.
func subseed(seed uint64, stream int) uint64 {
	z := seed + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

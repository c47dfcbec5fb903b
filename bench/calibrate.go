package main

import (
	"math"
	"time"
)

// Machine-speed calibration.
//
// The shared builder this benchmark was sized on slows down for minutes at
// a time: ten-second medians of any workload — the allocation-free
// interpreter loop included — move by 30–40% over a quarter of an hour,
// while a register-only or L2-resident loop moves by 2%. What varies is the
// memory system the neighbours share, and with it everything that misses
// the inner caches, allocates, or hands work between threads. Ten runs of
// one binary then spread by 16–26% in raw time whatever statistic of the
// rounds is taken, which is as wide as the widest bound a benchmark may
// declare.
//
// So a run times three fixed kernels that are sensitive to the same things
// — a random walk over a 4 MiB table, heap allocation churn, a goroutine
// ping-pong over channels — before every set-up and every round (at most
// four times a second), and reports its times in reference-machine time: scaled
// by the kernels' nominal time over their measured time (geometric mean of
// the three, each the median of its samples). Measured alongside the
// workloads, that index tracks ten-second medians of the controller, the
// interpreter and the analysis with a residual of 3–5% against 7–12% raw.
// The kernels live here and use none of the program's code, so a change to
// the program moves the scaled metrics exactly as it moves the raw ones; the
// report prints both, and the traced pass reports the index as
// trace.machine_speed.
type calibration struct {
	samples []calSample
	last    time.Time
}

type calSample [3]time.Duration // table walk, allocation churn, ping-pong

// calNominal is each kernel's time on the builder in a quiet period.
var calNominal = calSample{5500 * time.Microsecond, 5000 * time.Microsecond, 4000 * time.Microsecond}

const calEvery = 250 * time.Millisecond

var (
	calTable [1 << 19]uint64 // 4 MiB: misses L2, contends for L3 and memory
	calSink  uint64
)

func (c *calibration) sample() {
	if !c.last.IsZero() && time.Since(c.last) < calEvery {
		return
	}
	var s calSample
	for i, kernel := range []func(){tableWalk, allocChurn, pingPong} {
		start := time.Now()
		kernel()
		s[i] = time.Since(start)
	}
	c.samples = append(c.samples, s)
	c.last = time.Now()
}

// speed is the machine's speed during the run relative to the reference:
// below 1 when the kernels ran slower than nominal.
func (c *calibration) speed() float64 {
	var logSpeed float64
	times := make([]time.Duration, len(c.samples))
	for k := range calNominal {
		for i, s := range c.samples {
			times[i] = s[k]
		}
		logSpeed += math.Log(calNominal[k].Seconds() / medianDuration(times).Seconds())
	}
	return math.Exp(logSpeed / float64(len(calNominal)))
}

func tableWalk() {
	x, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += calTable[x%uint64(len(calTable))]
		calTable[(x>>24)%uint64(len(calTable))] = sum ^ x
	}
	calSink += sum
}

func allocChurn() {
	type node struct {
		next *node
		pad  [6]uint64
	}
	var head *node
	for i := 0; i < 100000; i++ {
		head = &node{next: head}
		if i%64 == 63 {
			head = nil // drop the chain: garbage for the collector
		}
	}
	if head != nil {
		calSink += head.pad[0]
	}
}

func pingPong() {
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := uint64(0)
	for i := 0; i < 10000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong // wait for the peer to exit
	calSink += v
}

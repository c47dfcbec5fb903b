package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g MaxGauge
	g.Observe(3)
	g.Observe(1)
	g.Observe(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 100, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if s.Max != 100 {
		t.Fatalf("max = %d, want 100", s.Max)
	}
	wantMean := float64(0+1+1+2+3+4+100+0) / 8
	if math.Abs(s.Mean-wantMean) > 1e-9 {
		t.Fatalf("mean = %g, want %g", s.Mean, wantMean)
	}
	var total int64
	prev := int64(-1)
	for _, b := range s.Buckets {
		if b.Le <= prev {
			t.Fatalf("bucket bounds not increasing: %v", s.Buckets)
		}
		prev = b.Le
		total += b.Count
	}
	if total != 8 {
		t.Fatalf("bucket counts sum to %d, want 8", total)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].Le != math.MaxInt64 {
		t.Fatalf("extreme bucket = %+v", s.Buckets)
	}
}

func TestStateEventCoverage(t *testing.T) {
	var c StateEventCoverage
	c.Hit("Node", "Init", "Ping")
	c.Hit("Node", "Init", "Ping")
	c.Hit("Node", "Done", "Pong")
	if got := c.Distinct(); got != 2 {
		t.Fatalf("distinct = %d, want 2", got)
	}
	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(snap))
	}
	if snap[0].State != "Done" || snap[1].State != "Init" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	if snap[1].Count != 2 {
		t.Fatalf("Init/Ping count = %d, want 2", snap[1].Count)
	}
}

// TestStateEventCoverageCounter: a resolved counter covers its transition
// at its first add, not at resolution, and Hit counts into the same counter.
func TestStateEventCoverageCounter(t *testing.T) {
	var c StateEventCoverage
	k := Transition{Machine: "Node", State: "Init", Event: "Ping"}
	n := c.Counter(k)
	if c.Counter(k) != n {
		t.Fatal("two counters for one transition")
	}
	if got := c.Distinct(); got != 0 || len(c.Snapshot()) != 0 {
		t.Fatalf("resolved but never added: distinct %d, snapshot %+v", got, c.Snapshot())
	}
	n.Add(3)
	n.Add(2)
	c.Hit("Node", "Init", "Ping")
	if got := c.Distinct(); got != 1 {
		t.Fatalf("distinct = %d, want 1", got)
	}
	if snap := c.Snapshot(); len(snap) != 1 || snap[0].Transition != k || snap[0].Count != 6 {
		t.Fatalf("snapshot = %+v, want %+v counted 6 times", snap, k)
	}
}

func TestStateEventCoverageConcurrent(t *testing.T) {
	var c StateEventCoverage
	var wg sync.WaitGroup
	names := []string{"A", "B", "C", "D"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Hit("M", names[j%len(names)], "E")
			}
		}(i)
	}
	wg.Wait()
	if got := c.Distinct(); got != int64(len(names)) {
		t.Fatalf("distinct = %d, want %d", got, len(names))
	}
	var total int64
	for _, tc := range c.Snapshot() {
		total += tc.Count
	}
	if total != 8*1000 {
		t.Fatalf("total hits = %d, want 8000", total)
	}
}

func TestCurveSamplingAndThinning(t *testing.T) {
	c := NewCurve(time.Millisecond, 8)
	if c.Due(0) {
		t.Fatal("curve due at t=0")
	}
	for i := 1; i <= 20; i++ {
		el := time.Duration(i) * time.Millisecond
		if c.Due(el) {
			c.Sample(el, false, int64(i))
		}
	}
	pts := c.Points()
	if len(pts) == 0 || len(pts) >= 8 {
		t.Fatalf("points = %d, want thinned below 8 and non-empty", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Elapsed <= pts[i-1].Elapsed {
			t.Fatalf("points not time-ordered: %+v", pts)
		}
	}
	// A forced sample always lands even if the bucket is not due.
	n := len(pts)
	c.Sample(21*time.Millisecond, true, 21)
	if got := len(c.Points()); got != n+1 {
		t.Fatalf("forced sample not recorded: %d -> %d", n, got)
	}
}

func TestCurveSkipsUnduesSamples(t *testing.T) {
	c := NewCurve(10*time.Millisecond, 100)
	c.Sample(time.Millisecond, false, 1)
	if got := len(c.Points()); got != 0 {
		t.Fatalf("undue sample recorded: %d points", got)
	}
}

func TestServeDebug(t *testing.T) {
	addr, shutdown, err := ServeDebug("127.0.0.1:0", func() any {
		return map[string]int{"iterations": 42}
	})
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var got map[string]int
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	if got["iterations"] != 42 {
		t.Fatalf("vars = %v", got)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}

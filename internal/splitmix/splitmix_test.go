package splitmix

import "testing"

// TestSourceMatchesReference pins the stream to the published SplitMix64
// output for seed 0, so the strategies, the interpreters' scheduler and the
// production runtime keep drawing what their recorded schedules drew.
func TestSourceMatchesReference(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var s Source
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
	if g := uint64(Golden); s.State != 3*g {
		t.Fatalf("State = %#x after three draws, want 3*Golden", s.State)
	}
}

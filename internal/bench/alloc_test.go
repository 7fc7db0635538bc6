package bench

import (
	"testing"

	"xkernel/internal/sim"
)

// TestRoundTripAllocs pins the heap allocations of one uninstrumented
// round trip on the synchronous simulator, so a per-message allocation
// slipped onto the shepherd's path (the paper's §5 buffer-management
// lesson, 0.50→0.11 msec) fails here even where hotpathalloc cannot see
// it. The ceilings are the counts measured on 2026-10-17; lower them
// when a change removes allocations, never raise them to admit one.
func TestRoundTripAllocs(t *testing.T) {
	cases := []struct {
		stack Stack
		size  int
		max   float64
	}{
		{LRPCVIP, 0, 69},
		{MRPCVIP, 0, 47},
		{LRPCVIP, 16 * 1024, 251},
	}
	for _, c := range cases {
		tb, err := Build(c.stack, sim.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, c.size)
		if err := tb.End.RoundTrip(payload); err != nil {
			t.Fatalf("%s %dB: warm-up call: %v", c.stack, c.size, err)
		}
		var callErr error
		got := testing.AllocsPerRun(200, func() {
			if err := tb.End.RoundTrip(payload); err != nil {
				callErr = err
			}
		})
		tb.Close()
		if callErr != nil {
			t.Fatalf("%s %dB: %v", c.stack, c.size, callErr)
		}
		t.Logf("%s %dB: %.0f allocs per round trip", c.stack, c.size, got)
		if got > c.max {
			t.Errorf("%s %dB: %.0f allocs per round trip, want <= %.0f", c.stack, c.size, got, c.max)
		}
	}
}

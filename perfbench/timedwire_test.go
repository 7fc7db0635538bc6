package main

import (
	"testing"
	"time"

	"xkernel/internal/obs/span"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
	"xkernel/internal/wire/udp"
	"xkernel/internal/wire/wiretest"
)

// mkTimed returns a wiretest constructor for the timing wrapper over f
// with an enabled recorder, so the timed path is the one under test.
func mkTimed(f wire.Factory) func(t *testing.T) wire.Wire {
	return func(t *testing.T) wire.Wire {
		rec := span.NewRecorder(0)
		rec.Enable()
		w, err := timedFactory(f, rec)()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
}

func TestTimedWireContractSim(t *testing.T) {
	wiretest.Run(t, mkTimed(sim.Factory(sim.Config{})), wiretest.Options{})
}

func TestTimedWireContractUDP(t *testing.T) {
	wiretest.Run(t, mkTimed(udp.Factory(udp.Config{})), wiretest.Options{Lossy: true, Patience: 5 * time.Second})
}

// TestTimedWireSameFrames runs each sim workload's traffic on the bare
// simulator and on the timing wrapper over it, traced, and requires the
// same frames and bytes per call.
func TestTimedWireSameFrames(t *testing.T) {
	const calls = 200
	perCall := func(w workload, f wire.Factory, rec *span.Recorder) wire.Stats {
		tb, err := setUp(w, f, rec != nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		if rec != nil {
			tb.SetSpans(rec)
			rec.Enable()
		}
		c := newClient(w, tb.End, 1)
		before := tb.Wire.Stats()
		for i := 0; i < calls; i++ {
			if _, err := c.call(); err != nil {
				t.Fatal(err)
			}
		}
		return wireDelta(before, tb.Wire.Stats())
	}
	for _, w := range workloads {
		bare := perCall(w, sim.Factory(sim.Config{}), nil)
		rec := span.NewRecorder(0)
		timed := perCall(w, timedFactory(sim.Factory(sim.Config{}), rec), rec)
		if bare != timed {
			t.Errorf("%s: bare wire %+v, timed wire %+v over %d calls", w.name, bare, timed, calls)
		}
		if bare.FramesSent == 0 {
			t.Errorf("%s: no frames sent", w.name)
		}
		var sends int
		for _, s := range rec.Spans() {
			if s.Layer == "wire" && s.Dir == dirSend {
				sends++
			}
		}
		if int64(sends) != timed.FramesSent {
			t.Errorf("%s: %d send spans for %d frames", w.name, sends, timed.FramesSent)
		}
	}
}

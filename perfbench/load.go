package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"

	"xkernel/internal/bench"
	"xkernel/internal/obs/span"
	"xkernel/internal/wire"
)

// client is the closed-loop caller: it issues its next call only when
// the previous one has returned, and times each call itself.
type client struct {
	ep       bench.Endpoint
	payloads [][]byte
	// rec, when set, records a span around every call, charged to
	// rootLayer; the wrapped boundaries below nest under it.
	rec       *span.Recorder
	rootLayer string
	next      int
}

func newClient(w workload, ep bench.Endpoint, seed uint64) *client {
	return &client{ep: ep, payloads: w.payloads(seed), rootLayer: "client/" + w.entry}
}

// call performs one round trip and returns its latency.
func (c *client) call() (time.Duration, error) {
	p := c.payloads[c.next%len(c.payloads)]
	c.next++
	var sid uint64
	start := time.Now()
	if c.rec != nil {
		sid = c.rec.Begin(c.rootLayer, span.DirCall, 0, 0, len(p), c.rec.Since(start))
	}
	err := c.ep.RoundTrip(p)
	end := time.Now()
	if c.rec != nil {
		c.rec.End(sid, c.rec.Since(end), span.ErrString(err))
	}
	return end.Sub(start), err
}

// phase is what one timed stretch of closed-loop load produced.
type phase struct {
	elapsed   time.Duration
	cpuNs     int64 // process user+system CPU over the stretch
	attempted int64
	completed int64
	failed    int64
	firstErr  error
	// The completed calls' round trips, in nanoseconds.
	p50Ns    uint32
	p99Ns    uint32
	p99OK    bool // at least minBeyond samples lie beyond p99
	beyond99 int
	meanNs   float64

	rt0    rtSnap
	rt1    rtSnap
	wire0  wire.Stats
	wire1  wire.Stats
	execs0 int64
	execs1 int64
}

// runOpts shapes one phase.
type runOpts struct {
	dur time.Duration
	// stop, when set, is polled after each call; true ends the phase
	// early.
	stop func() bool
	// capacity preallocates the sample buffer, so the measured stretch
	// does not grow it.
	capacity int
}

// newSamples returns an empty latency buffer with room for n samples and
// the function that releases it. The buffer is mapped outside the Go
// heap, so the benchmark's own storage does not change when the
// collector runs: it paces itself on the program's heap alone. The
// buffer must not be used after free.
func newSamples(n int) (s []uint32, free func()) {
	if n <= 0 {
		return nil, func() {}
	}
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return make([]uint32, 0, n), func() {}
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)[:0], func() { syscall.Munmap(mem) }
}

// run drives c for o.dur and returns what the stretch produced. tb
// supplies the at-most-once and wire counters read at its edges.
func run(tb *bench.Testbed, c *client, o runOpts) *phase {
	samples, free := newSamples(o.capacity)
	defer free()
	ph := &phase{wire0: tb.Wire.Stats()}
	if tb.ServerExecs != nil {
		ph.execs0 = tb.ServerExecs()
	}
	ph.rt0 = readRuntime()
	cpu0 := cpuNs()
	start := time.Now()
	deadline := start.Add(o.dur)
	for time.Now().Before(deadline) {
		lat, err := c.call()
		if err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = err
			}
		} else {
			samples = append(samples, uint32(min(lat.Nanoseconds(), math.MaxUint32)))
		}
		if o.stop != nil && o.stop() {
			break
		}
	}
	ph.elapsed = time.Since(start)
	ph.cpuNs = cpuNs() - cpu0
	ph.rt1 = readRuntime()
	ph.wire1 = tb.Wire.Stats()
	if tb.ServerExecs != nil {
		ph.execs1 = tb.ServerExecs()
	}

	ph.completed = int64(len(samples))
	ph.attempted = ph.completed + ph.failed
	var sum float64
	for _, s := range samples {
		sum += float64(s)
	}
	ph.meanNs = sum / float64(max(ph.completed, 1))
	// Sorted in place: the buffer is off the heap and about to be freed.
	lat := summarize(samples)
	ph.p50Ns, _ = lat.Quantile(p50)
	ph.p99Ns, ph.p99OK = lat.Quantile(p99)
	ph.beyond99 = lat.Beyond(p99)
	return ph
}

// problems lists every correctness check the phase failed; empty means
// the outputs were right.
//
//   - at least one call completed;
//   - the server executed each completed call once and nothing beyond
//     the attempts: completed ≤ executions ≤ attempted (at-most-once);
//   - every frame the simulated wire sent was delivered, dropped or had
//     no destination.
func (ph *phase) problems(tb *bench.Testbed) []string {
	var out []string
	if ph.completed == 0 {
		out = append(out, fmt.Sprintf("no call completed (first error: %v)", ph.firstErr))
	}
	if tb.ServerExecs != nil {
		if execs := ph.execs1 - ph.execs0; execs < ph.completed || execs > ph.attempted {
			out = append(out, fmt.Sprintf("at-most-once: server ran %d requests for %d completed of %d attempted calls",
				execs, ph.completed, ph.attempted))
		}
	}
	d := wireDelta(ph.wire0, ph.wire1)
	if d.FramesSent != d.FramesDelivered+d.FramesDropped+d.FramesNoDest {
		out = append(out, fmt.Sprintf("wire: %d frames sent but %d delivered, %d dropped, %d without destination",
			d.FramesSent, d.FramesDelivered, d.FramesDropped, d.FramesNoDest))
	}
	return out
}

func wireDelta(a, b wire.Stats) wire.Stats {
	return wire.Stats{
		FramesSent:      b.FramesSent - a.FramesSent,
		FramesDelivered: b.FramesDelivered - a.FramesDelivered,
		FramesDropped:   b.FramesDropped - a.FramesDropped,
		FramesNoDest:    b.FramesNoDest - a.FramesNoDest,
		BytesSent:       b.BytesSent - a.BytesSent,
	}
}

// Command perfbench is the repository's benchmark: a single-process,
// closed-loop RPC load generator over the paper's protocol stacks. It
// builds a two-host testbed for the named workload, drives it with a
// client that waits for each reply before the next call, times every
// call itself and reports exact quantiles.
//
//	perfbench --workload null-lrpc-sim --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload again with spans, wire timing and profiles on and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
// correctness check prints the object with "correct": false and exits
// 1. README.md describes the workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"xkernel/internal/bench"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
)

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "seed the request payloads are generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	runtime.GOMAXPROCS(procs)

	var res *result
	if *trace == 1 {
		// Sample the heap finely enough that every package's share rests
		// on many samples; set before the run allocates anything.
		runtime.MemProfileRate = 16 << 10
		res, err = traced(w, *seed, dur, ".bench_build")
	} else {
		res, err = endToEnd(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// procs is the number of processors the Go runtime may run on at once.
// Every workload's critical path is one goroutine, so one processor is
// all the protocols use, as on the paper's uniprocessor. With a second
// one the collector's background worker runs there when the machine
// lets it, and the round-trip tail depends on that: on bulk16k-lrpc-sim
// with two the 99th percentile sat on a ramp (p98 340 µs, p99 570-620
// µs, p99.5 1.1-1.2 ms) and spread 18-27% between runs; with one the
// collector's work interleaves with the client, its cost still lands in
// the round trip, and the tail is flat (p98 253 µs, p99 304-311 µs,
// p99.5 391-403 µs).
const procs = 1

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are printed before the JSON line: counts behind the
	// metrics, figures reported for reading only, and every failed
	// correctness check.
	notes []string
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check.
func (r *result) fail(problems ...string) {
	for _, p := range problems {
		r.Correct = false
		r.note("CHECK FAILED: %s", p)
	}
}

// print writes the notes, one metric per line with its unit, and the
// JSON object as the last line.
func (r *result) print(f *os.File) error {
	var b bytes.Buffer
	for _, n := range r.notes {
		fmt.Fprintln(&b, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&b, "%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = f.Write(b.Bytes())
	return err
}

// setUp builds the workload's testbed over f and makes the client's
// first call; it returns once that call has had a good reply.
// instrumented selects the build with an obs.Wrap at every protocol
// boundary.
func setUp(w workload, f wire.Factory, instrumented bool) (*bench.Testbed, error) {
	var tb *bench.Testbed
	var err error
	if instrumented {
		tb, _, err = bench.BuildInstrumentedOn(w.stack, f, nil)
	} else {
		tb, err = bench.BuildOn(w.stack, f, nil)
	}
	if err != nil {
		return nil, err
	}
	if err := tb.End.RoundTrip(nil); err != nil {
		tb.Close()
		return nil, fmt.Errorf("first call: %w", err)
	}
	return tb, nil
}

// verify echoes one seeded request of the workload's size (at least 64
// bytes) through ep and checks the reply byte for byte, so even the
// null workloads prove their stack carries data intact.
func verify(w workload, ep bench.Endpoint, seed uint64) []string {
	probe := w
	probe.size = max(w.size, 64)
	want := probe.payloads(seed)[0]
	got, err := ep.Echo(want)
	if err != nil {
		return []string{fmt.Sprintf("verify echo: %v", err)}
	}
	if !bytes.Equal(got, want) {
		return []string{fmt.Sprintf("verify echo: %d-byte reply differs from its %d-byte request", len(got), len(want))}
	}
	return nil
}

// setupRuns is how many times a run builds the testbed; setup_s is the
// median, and the last build is the one measured.
const setupRuns = 201

// build sets the workload up setupRuns times and keeps the last
// testbed, returning the median set-up time.
func build(w workload) (*bench.Testbed, time.Duration, error) {
	var times []float64
	var tb *bench.Testbed
	for i := 0; i < setupRuns; i++ {
		if tb != nil {
			tb.Close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if tb, err = setUp(w, sim.Factory(sim.Config{}), false); err != nil {
			return nil, 0, err
		}
		times = append(times, float64(time.Since(start)))
	}
	return tb, time.Duration(median(times)), nil
}

// warmUp runs the client untimed so caches fill and lazy set-up
// finishes, and returns how many calls a measured stretch of dur can be
// expected to complete at the warm-up's rate.
func warmUp(tb *bench.Testbed, c *client, dur time.Duration) (float64, []string) {
	wd := min(max(dur/10, 200*time.Millisecond), time.Second)
	ph := run(tb, c, runOpts{dur: wd})
	return float64(ph.completed) * dur.Seconds() / wd.Seconds(), ph.problems(tb)
}

// capacityFor sizes the sample buffer with room for three times the
// expected calls.
func capacityFor(expected float64) int {
	return int(3*expected) + 1<<16
}

// endToEnd is the untraced run: set-up timing, warm-up, then dur of
// measured closed-loop load on the bare testbed. Every figure is taken
// over the whole measured stretch.
func endToEnd(w workload, seed uint64, dur time.Duration) (*result, error) {
	tb, setup, err := build(w)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.fail(verify(w, tb.End, seed)...)

	c := newClient(w, tb.End, seed)
	expected, problems := warmUp(tb, c, dur)
	res.fail(problems...)
	runtime.GC()
	ph := run(tb, c, runOpts{dur: dur, capacity: capacityFor(expected)})
	res.fail(ph.problems(tb)...)
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if !ph.p99OK {
		res.fail(fmt.Sprintf("%d samples cannot support p99 (need %d)", ph.completed, minSamplesFor(p99)))
	}

	n := float64(ph.completed)
	res.set("rtt_p50_us", float64(ph.p50Ns)/1e3, "us")
	res.set("rtt_p99_us", float64(ph.p99Ns)/1e3, "us")
	res.set("calls_per_s", n/ph.elapsed.Seconds(), "1/s")
	res.set("cpu_us_per_call", float64(ph.cpuNs)/n/1e3, "us")
	res.set("allocs_per_call", float64(ph.rt1.allocObjects-ph.rt0.allocObjects)/n, "count")
	res.set("alloc_bytes_per_call", float64(ph.rt1.allocBytes-ph.rt0.allocBytes)/n, "B")
	res.set("setup_s", setup.Seconds(), "s")

	res.note("workload %s: %s over the synchronous sim wire, 1 client, %d-byte requests, seed %d", w.name, w.stack, w.size, seed)
	res.note("samples %d over %.3fs; %d beyond p99", ph.completed, ph.elapsed.Seconds(), ph.beyond99)
	res.note("goodput_mb_per_s %.4f MB/s (request + reply payload bytes; headers and retransmits excluded)",
		float64(w.size)*n/ph.elapsed.Seconds()/1e6)
	res.note("error_rate %.6f ratio (%d failed of %d attempted)", float64(ph.failed)/float64(max(ph.attempted, 1)), ph.failed, ph.attempted)
	res.note("gc cycles %d over the stretch", ph.rt1.gcCycles-ph.rt0.gcCycles)
	return res, nil
}

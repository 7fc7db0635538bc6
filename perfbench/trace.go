package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xkernel/internal/bench"
	"xkernel/internal/ledger"
	"xkernel/internal/obs/anatomy"
	"xkernel/internal/obs/prof"
	"xkernel/internal/obs/span"
	"xkernel/internal/sim"
)

// The protocol layers whose span self time is reported, and the
// packages the heap profile is split into.
var (
	spanLayers = []string{"eth", "ip", "vip", "fragment", "channel", "select", "mrpc", "handler"}
	allocPkgs  = []string{"msg", "obs", "fragment", "channel", "wire", "other"}
)

// maxSpans bounds the traced stretch's span buffer; the stretch ends
// once three quarters of it are used, so no call's tree is cut short.
const maxSpans = 1 << 17

// traced is the per-layer run. It measures the workload three times
// over, each stretch a share of dur:
//
//	A  bare testbed, as the end-to-end run: runtime, wire and protocol
//	   counters, and the untraced median the tracing cost is priced
//	   against;
//	B1 instrumented testbed on the timing wire with spans on: per-layer
//	   self time and crossings, wire send and upcall time;
//	B2 the same with a heap and mutex profile captured: allocation by
//	   package and lock wait by lock class.
//
// Profiles are written under dir and removed before it returns.
func traced(w workload, seed uint64, dur time.Duration, dir string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.note("workload %s: traced run, seed %d", w.name, seed)

	// A: untraced.
	tb, err := setUp(w, sim.Factory(sim.Config{}), false)
	if err != nil {
		return nil, err
	}
	res.fail(verify(w, tb.End, seed)...)
	c := newClient(w, tb.End, seed)
	durA := dur * 4 / 10
	expected, problems := warmUp(tb, c, durA)
	res.fail(problems...)
	retr0, led0 := counters(tb)
	runtime.GC()
	a := run(tb, c, runOpts{dur: durA, capacity: capacityFor(expected)})
	retr1, led1 := counters(tb)
	tb.Close()
	res.fail(a.problems(tb)...)
	n := float64(max(a.completed, 1))

	wd := wireDelta(a.wire0, a.wire1)
	res.set("wire.frames_per_call", float64(wd.FramesSent)/n, "count")
	res.set("wire.bytes_per_call", float64(wd.BytesSent)/n, "B")
	res.set("wire.dropped_per_kcall", 1000*float64(wd.FramesDropped)/n, "count")
	res.set("gc.cycles_per_kcall", 1000*float64(a.rt1.gcCycles-a.rt0.gcCycles)/n, "count")
	res.set("gc.pause_ns_per_call", float64(a.rt1.gcPauseNs-a.rt0.gcPauseNs)/n, "ns")
	res.set("sched.latency_p99_us", schedP99Us(a.rt0, a.rt1), "us")
	retr := 1000 * float64(retr1-retr0) / n
	res.set("channel.retransmits_per_kcall", 0, "count")
	res.set("mrpc.retransmits_per_kcall", 0, "count")
	res.set(w.entryReliability()+".retransmits_per_kcall", retr, "count")
	lookups := led1.Lookups - led0.Lookups
	res.set("ledger.lookups_per_call", float64(lookups)/n, "count")
	res.set("ledger.appends_per_call", float64(led1.Appends-led0.Appends)/n, "count")
	res.set("ledger.hit_ratio", float64(led1.Hits-led0.Hits)/float64(max(lookups, 1)), "ratio")

	// B: instrumented, on the timing wire, spans recorded.
	rec := span.NewRecorder(maxSpans)
	tbi, err := setUp(w, timedFactory(sim.Factory(sim.Config{}), rec), true)
	if err != nil {
		return nil, err
	}
	defer tbi.Close()
	tbi.SetSpans(rec)
	c = newClient(w, tbi.End, seed)
	expected, problems = warmUp(tbi, c, dur*3/10)
	res.fail(problems...)
	capacity := capacityFor(expected)
	c.rec = rec
	// One untimed traced stretch grows the span buffer to its working
	// size, so the measured one does not pay for the growth.
	full := func() bool { return rec.Len() >= maxSpans*3/4 }
	rec.Enable()
	run(tbi, c, runOpts{dur: dur * 3 / 10, stop: full})
	rec.Disable()
	rec.Reset()

	runtime.GC()
	rec.Enable()
	b1 := run(tbi, c, runOpts{dur: dur * 3 / 10, capacity: capacity, stop: full})
	rec.Disable()
	res.fail(b1.problems(tbi)...)
	if d := rec.Dropped(); d > 0 {
		res.fail(fmt.Sprintf("span buffer dropped %d spans", d))
	}
	st := analyze(rec.Spans(), w)
	rec.Reset()
	// On the synchronous wire every span of a call nests on the caller's
	// goroutine, so each call must rebuild as one well-formed tree.
	if st.open > 0 || st.violations > 0 {
		res.fail(fmt.Sprintf("%d spans left open and %d composition violations (containment, overlap or sum) in %d spans",
			st.open, st.violations, st.spans))
	}
	calls := float64(max(b1.completed, 1))
	for _, l := range spanLayers {
		res.set(l+".self_ns_per_call", float64(st.self[l])/calls, "ns")
		res.set(l+".crossings_per_call", float64(st.crossings[l])/calls, "count")
	}
	res.set("wire.send_self_ns_per_frame", float64(st.sendSelf)/float64(max(st.sends, 1)), "ns")
	res.set("wire.upcall_ns_per_frame", float64(st.upcallSelf)/float64(max(st.upcalls, 1)), "ns")

	res.set("obs.trace_overhead_pct", 100*(float64(b1.p50Ns)/float64(a.p50Ns)-1), "%")
	// Σ self over a well-formed tree telescopes to its root's duration,
	// and the root is the benchmark's span over the timed call, so this
	// is zero up to rounding unless spans were recorded outside any call.
	selfPerCall := float64(st.total) / calls
	res.set("anatomy.compose_error_pct", 100*(selfPerCall/b1.meanNs-1), "%")
	res.note("traced: %d calls, %d spans, %d frames; untraced p50 %.3f us, traced p50 %.3f us",
		b1.completed, st.spans, st.sends, float64(a.p50Ns)/1e3, float64(b1.p50Ns)/1e3)
	res.note("sum of layer self time %.1f ns/call vs traced mean round trip %.1f ns",
		selfPerCall, b1.meanNs)

	// B2: profiles. Spans stay on, so the profile prices the same
	// configuration; the buffer is emptied whenever it half fills.
	alloc, locks, b2, err := profiled(tbi, c, rec, dur*3/10, capacity, dir)
	if err != nil {
		return nil, err
	}
	res.fail(b2.problems(tbi)...)
	c2 := float64(max(b2.completed, 1))
	for _, p := range allocPkgs {
		res.set("alloc."+p+".bytes_per_call", float64(alloc[p])/c2, "B")
	}
	res.set("lock.fragment_session.wait_ns_per_call", float64(locks["(fragment.session).mu"])/c2, "ns")
	res.set("lock.channel_srvchan.wait_ns_per_call", float64(locks["(channel.srvChan).mu"])/c2, "ns")

	res.Attempted = a.attempted + b1.attempted + b2.attempted
	res.Failed = a.failed + b1.failed + b2.failed
	return res, nil
}

// entryReliability names the layer whose retransmission counter the
// testbed exposes: CHANNEL under SELECT, M.RPC's own engine otherwise.
func (w workload) entryReliability() string {
	if w.entry == "mrpc" {
		return "mrpc"
	}
	return "channel"
}

// counters reads the client's retransmissions and the server ledger.
func counters(tb *bench.Testbed) (retransmits int64, led ledger.Stats) {
	if tb.Retransmits != nil {
		retransmits = tb.Retransmits()
	}
	if tb.LedgerStats != nil {
		led = tb.LedgerStats()
	}
	return retransmits, led
}

// profiled runs the client for dur with a heap and mutex profile
// capturing, and returns allocated bytes by package and mutex wait by
// lock class over that stretch.
func profiled(tb *bench.Testbed, c *client, rec *span.Recorder, dur time.Duration, capacity int, dir string) (map[string]int64, map[string]int64, *phase, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	tmp, err := os.MkdirTemp(dir, "perfbench-prof-")
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(tmp)
	before := filepath.Join(tmp, "heap0.pb.gz")
	capt := prof.Capture{HeapPath: filepath.Join(tmp, "heap1.pb.gz"), MutexPath: filepath.Join(tmp, "mutex.pb.gz")}

	if err := prof.WriteHeapProfile(before); err != nil {
		return nil, nil, nil, err
	}
	if err := capt.Start(); err != nil {
		return nil, nil, nil, err
	}
	rec.Enable()
	ph := run(tb, c, runOpts{dur: dur, capacity: capacity,
		stop: func() bool {
			if rec.Len() >= maxSpans/2 {
				rec.Reset()
			}
			return false
		}})
	rec.Disable()
	if err := capt.Stop(); err != nil {
		return nil, nil, nil, err
	}

	h0, err := prof.ParseFile(before)
	if err != nil {
		return nil, nil, nil, err
	}
	h1, err := prof.ParseFile(capt.HeapPath)
	if err != nil {
		return nil, nil, nil, err
	}
	mu, err := prof.ParseFile(capt.MutexPath)
	if err != nil {
		return nil, nil, nil, err
	}
	alloc := map[string]int64{}
	for _, l := range prof.BuildReport(nil, h1, nil, nil).Layers {
		alloc[allocPkg(l.Layer)] += l.AllocBytes
	}
	for _, l := range prof.BuildReport(nil, h0, nil, nil).Layers {
		alloc[allocPkg(l.Layer)] -= l.AllocBytes
	}
	locks := map[string]int64{}
	for _, l := range prof.BuildReport(nil, nil, mu, nil).Locks {
		locks[l.Class] += l.WaitNs
	}
	return alloc, locks, ph, nil
}

// allocPkg folds the profile's leaf-package layers into the reported
// packages: the observer's subpackages into obs, everything else
// (other protocols, the runtime, this benchmark) into other.
func allocPkg(layer string) string {
	switch layer {
	case "msg", "fragment", "channel":
		return layer
	case "obs", "span", "anatomy", "prof", "gauge", "flight":
		return "obs"
	case "wire":
		return "wire"
	}
	return "other"
}

// spanStats is the per-layer reading of one traced stretch.
type spanStats struct {
	self      map[string]int64 // exclusive ns by layer
	crossings map[string]int64
	total     int64 // Σ self over every span, wire included
	sendSelf  int64
	sends     int64
	// upcallSelf is the receive half of the wire seam: the time inside
	// the backend's receiver callback not spent in the protocol graph
	// above it.
	upcallSelf int64
	upcalls    int64
	spans      int
	open       int
	violations int
}

// analyze rebuilds each call's cause tree and charges every span's self
// time to a layer. On the synchronous sim wire anatomy's containment
// rebuild is exact: the whole round trip nests on the caller's
// goroutine.
func analyze(spans []span.Span, w workload) *spanStats {
	a := anatomy.Analyze(spans)
	st := &spanStats{self: map[string]int64{}, crossings: map[string]int64{},
		spans: a.Total, open: a.Open, violations: len(a.CheckComposition(anatomy.DefaultEpsilon))}
	for _, r := range a.Roots {
		r.Walk(func(n *anatomy.Node) {
			self := n.Exclusive()
			st.total += self
			s := &n.Span
			switch {
			case s.Layer == "wire" && s.Dir == dirUpcall:
				st.upcallSelf += self
				st.upcalls++
				return
			case s.Layer == "wire":
				st.sendSelf += self
				if s.Dir == dirSend {
					st.sends++
				}
				return
			}
			l := layerOf(s, w)
			st.self[l] += self
			st.crossings[l]++
		})
	}
	return st
}

// layerOf names the layer a span's self time belongs to. Boundaries
// are named by the protocol below them: a downward or call crossing
// runs that protocol, an upward one runs the demux of the layer above.
func layerOf(s *span.Span, w workload) string {
	b := s.Layer[strings.LastIndexByte(s.Layer, '/')+1:]
	if s.Dir == span.DirUp {
		if up, ok := w.above[b]; ok {
			return up
		}
	}
	return b
}

package main

import (
	"strings"
	"testing"
	"time"

	"xkernel/internal/bench"
	"xkernel/internal/sim"
)

// corrupting flips one bit of every echo reply.
type corrupting struct{ bench.Endpoint }

func (c corrupting) Echo(p []byte) ([]byte, error) {
	r, err := c.Endpoint.Echo(p)
	if err == nil && len(r) > 0 {
		r = append([]byte(nil), r...)
		r[len(r)/2] ^= 0x10
	}
	return r, err
}

// lying reports success without reaching the server.
type lying struct{ bench.Endpoint }

func (lying) RoundTrip([]byte) error { return nil }

func runWith(t *testing.T, w workload, wrap func(bench.Endpoint) bench.Endpoint) []string {
	t.Helper()
	tb, err := setUp(w, sim.Factory(sim.Config{}), false)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ph := run(tb, newClient(w, wrap(tb.End), 1), runOpts{dur: 50 * time.Millisecond})
	if ph.attempted == 0 {
		t.Fatal("no call attempted")
	}
	return ph.problems(tb)
}

func TestChecksPassOnHonestEndpoint(t *testing.T) {
	for _, w := range workloads {
		if p := runWith(t, w, func(e bench.Endpoint) bench.Endpoint { return e }); len(p) > 0 {
			t.Errorf("%s: honest run failed its checks: %v", w.name, p)
		}
	}
}

func TestUnexecutedCallsFailRun(t *testing.T) {
	p := runWith(t, workloads[0], func(e bench.Endpoint) bench.Endpoint { return lying{e} })
	if len(p) == 0 || !strings.Contains(strings.Join(p, "\n"), "at-most-once") {
		t.Fatalf("calls the server never ran passed the checks: %v", p)
	}
}

// TestCorruptEchoFailsRun feeds the run's verification echo through an
// endpoint that corrupts replies and requires the run to be marked
// incorrect, as endToEnd and traced mark it.
func TestCorruptEchoFailsRun(t *testing.T) {
	for _, w := range workloads {
		tb, err := setUp(w, sim.Factory(sim.Config{}), false)
		if err != nil {
			t.Fatal(err)
		}
		if p := verify(w, tb.End, 1); len(p) > 0 {
			t.Errorf("%s: honest endpoint failed verify: %v", w.name, p)
		}
		res := &result{Correct: true, Metrics: map[string]metric{}}
		res.fail(verify(w, corrupting{tb.End}, 1)...)
		if res.Correct || !strings.Contains(strings.Join(res.notes, "\n"), "differs from its") {
			t.Errorf("%s: corrupted echo reply passed the run: %v", w.name, res.notes)
		}
		tb.Close()
	}
}

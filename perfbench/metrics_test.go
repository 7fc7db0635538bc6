package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// sameMetrics requires res to carry exactly the named metrics, each in
// its declared unit.
func sameMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	for _, w := range readBenchmarkFile(t).Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestEndToEndMetricsMatchBenchmarkFile(t *testing.T) {
	w, _ := lookupWorkload("null-mrpc-sim")
	res, err := endToEnd(w, 3, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("run failed its checks: %s", strings.Join(res.notes, "\n"))
	}
	sameMetrics(t, res, readBenchmarkFile(t).EndToEnd)
}

func TestTracedMetricsMatchBenchmarkFile(t *testing.T) {
	w, _ := lookupWorkload("null-lrpc-sim")
	res, err := traced(w, 3, 600*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed its checks: %s", strings.Join(res.notes, "\n"))
	}
	sameMetrics(t, res, readBenchmarkFile(t).PerLayer)
	// The sim round trip crosses each layered-RPC layer a fixed number
	// of times.
	for name, want := range map[string]float64{
		"select.crossings_per_call":   2,
		"channel.crossings_per_call":  4,
		"fragment.crossings_per_call": 4,
		"vip.crossings_per_call":      4,
		"eth.crossings_per_call":      2,
		"handler.crossings_per_call":  1,
		"mrpc.crossings_per_call":     0,
		"wire.frames_per_call":        2,
	} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

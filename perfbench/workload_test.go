package main

import (
	"bytes"
	"testing"
)

func TestPayloadsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.payloads(42)
		b := w.payloads(42)
		if len(a) != payloadCount {
			t.Fatalf("%s: %d payloads, want %d", w.name, len(a), payloadCount)
		}
		for i := range a {
			if len(a[i]) != w.size {
				t.Fatalf("%s: payload %d is %d bytes, want %d", w.name, i, len(a[i]), w.size)
			}
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: seed 42 gave two different payload %d", w.name, i)
			}
		}
		if w.size == 0 {
			continue
		}
		if bytes.Equal(a[0], w.payloads(43)[0]) {
			t.Errorf("%s: seeds 42 and 43 gave the same payload", w.name)
		}
		if bytes.Equal(a[0], a[1]) {
			t.Errorf("%s: the payloads repeat", w.name)
		}
	}
}

func TestLookupWorkload(t *testing.T) {
	for _, w := range workloads {
		got, err := lookupWorkload(w.name)
		if err != nil || got.name != w.name {
			t.Fatalf("lookupWorkload(%q) = %v, %v", w.name, got.name, err)
		}
	}
	if _, err := lookupWorkload("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

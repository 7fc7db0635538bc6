package main

import (
	"testing"

	"xkernel/internal/obs/span"
)

func sp(id uint64, layer, dir string, start, end int64) span.Span {
	return span.Span{ID: id, Layer: layer, Dir: dir, StartNs: start, EndNs: end, Done: true}
}

func TestAnalyzeSyncNests(t *testing.T) {
	w, _ := lookupWorkload("null-lrpc-sim")
	// On the synchronous wire the legs nest inside the caller's send.
	spans := []span.Span{
		sp(1, "client/select", span.DirCall, 0, 100),
		sp(2, "client/channel", span.DirCall, 5, 95),
		sp(3, "client/eth", span.DirDown, 10, 90),
		sp(4, "wire", dirSend, 12, 88),
		sp(5, "wire", dirUpcall, 13, 87),
		sp(6, "server/eth", span.DirUp, 14, 86),
		sp(7, "server/handler", span.DirHandler, 20, 30),
	}
	st := analyze(spans, w)
	if st.total != 100 || st.open != 0 || st.violations != 0 {
		t.Errorf("total %d, open %d, violations %d; want 100, 0, 0", st.total, st.open, st.violations)
	}
	for layer, want := range map[string]int64{"select": 10, "channel": 10, "eth": 4, "vip": 62, "handler": 10} {
		if got := st.self[layer]; got != want {
			t.Errorf("%s self = %d, want %d", layer, got, want)
		}
	}
	if st.crossings["vip"] != 1 || st.crossings["eth"] != 1 {
		t.Errorf("crossings %v", st.crossings)
	}
}

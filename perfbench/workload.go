package main

import (
	"fmt"
	"math/rand/v2"

	"xkernel/internal/bench"
)

// workload is one stack under one traffic mix: one closed-loop client
// calling the null procedure over the synchronous simulated wire (zero
// latency, no timers). README.md gives the reason each exists and which
// layer metrics it is expected to move.
type workload struct {
	name  string
	stack bench.Stack
	// size is the request payload in bytes; the reply is empty.
	size int
	// entry is the layer the endpoint itself is: the benchmark's span
	// around each call is charged to it.
	entry string
	// above maps an instrumented boundary (named by the protocol below
	// it) to the layer whose demux an upward crossing of it runs.
	above map[string]string
}

var layeredAbove = map[string]string{"eth": "vip", "ip": "vip", "vip": "fragment", "fragment": "channel", "channel": "select"}

var workloads = []workload{
	{name: "null-lrpc-sim", stack: bench.LRPCVIP, size: 0, entry: "select", above: layeredAbove},
	{name: "null-mrpc-sim", stack: bench.MRPCVIP, size: 0, entry: "mrpc",
		above: map[string]string{"eth": "vip", "ip": "vip", "vip": "mrpc"}},
	{name: "bulk16k-lrpc-sim", stack: bench.LRPCVIP, size: 16 * 1024, entry: "select", above: layeredAbove},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// payloadCount is how many distinct requests the client cycles through.
const payloadCount = 16

// payloads returns the client's requests, a pure function of seed: the
// same seed always yields the same bytes. A null workload's requests
// are empty.
func (w workload) payloads(seed uint64) [][]byte {
	r := rand.New(rand.NewPCG(seed, 0))
	out := make([][]byte, payloadCount)
	for i := range out {
		if w.size == 0 {
			continue
		}
		p := make([]byte, w.size)
		for j := range p {
			p[j] = byte(r.Uint32())
		}
		out[i] = p
	}
	return out
}

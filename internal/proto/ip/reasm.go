package ip

import (
	"sort"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/xk"
)

// reasmKey identifies a datagram under reassembly.
type reasmKey struct {
	src, dst xk.IPAddr
	proto    ProtoNum
	ident    uint16
}

// piece is one received fragment's payload range.
type piece struct {
	off  int
	data *msg.Msg
}

// reasmBuf collects fragments of one datagram.
type reasmBuf struct {
	pieces []piece
	total  int // datagram payload length, -1 until the last fragment arrives
	timer  *event.Event
}

// reassemble folds the fragment m (header h) into the reassembly table.
// When the datagram is complete it returns the assembled payload, a
// header describing the whole datagram, and done=true.
func (p *Protocol) reassemble(h header, m *msg.Msg) (*msg.Msg, header, bool) {
	k := reasmKey{src: h.src, dst: h.dst, proto: h.proto, ident: h.ident}

	p.mu.Lock()
	buf, ok := p.reasm[k]
	if !ok {
		buf = &reasmBuf{total: -1}
		p.reasm[k] = buf
		// The timer must be armed atomically with the buffer's insertion
		// or a timeout could race a second fragment of the same datagram.
		//xk:allow locksafety — Schedule only enqueues; the handler re-locks p.mu asynchronously, never under this call
		buf.timer = p.cfg.Clock.Schedule(p.cfg.ReassemblyTimeout, func() {
			p.mu.Lock()
			if p.reasm[k] == buf {
				delete(p.reasm, k)
				p.stats.ReassemblyTimeouts++
			}
			p.mu.Unlock()
		})
	}
	// Duplicate fragments (network-level duplication) are dropped.
	for _, pc := range buf.pieces {
		if pc.off == h.fragOff {
			p.mu.Unlock()
			return nil, h, false
		}
	}
	buf.pieces = append(buf.pieces, piece{off: h.fragOff, data: m})
	if !h.moreFrag {
		buf.total = h.fragOff + m.Len()
	}
	complete := buf.total >= 0 && buf.covered() == buf.total
	if !complete {
		p.mu.Unlock()
		return nil, h, false
	}
	delete(p.reasm, k)
	p.stats.Reassembled++
	p.mu.Unlock()
	buf.timer.Cancel()

	sort.Slice(buf.pieces, func(i, j int) bool { return buf.pieces[i].off < buf.pieces[j].off })
	full := msg.Empty()
	for _, pc := range buf.pieces {
		full.Join(pc.data)
	}
	fh := h
	fh.fragOff = 0
	fh.moreFrag = false
	fh.totalLen = uint16(HeaderLen + full.Len())
	return full, fh, true
}

// covered reports how many contiguous payload bytes from offset 0 the
// buffer holds; equal-length coverage with total means complete (pieces
// never overlap because senders fragment on fixed boundaries and
// duplicates are dropped).
func (b *reasmBuf) covered() int {
	sort.Slice(b.pieces, func(i, j int) bool { return b.pieces[i].off < b.pieces[j].off })
	next := 0
	for _, pc := range b.pieces {
		if pc.off != next {
			return next
		}
		next += pc.data.Len()
	}
	return next
}

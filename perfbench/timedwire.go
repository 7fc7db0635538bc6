package main

import (
	"xkernel/internal/obs/span"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// Span directions the timing wrapper records under the "wire" layer.
const (
	dirSend   = "send"   // inside Link.Send
	dirUpcall = "upcall" // inside the receiver callback the backend invoked
)

// timedFactory wraps f so that, while rec is enabled, every Link.Send
// and every receiver upcall is timed as a "wire" span. rec must not be
// nil. The wrapper forwards frames untouched: it changes no byte, count
// or error the backend produces.
func timedFactory(f wire.Factory, rec *span.Recorder) wire.Factory {
	return func() (wire.Wire, error) {
		w, err := f()
		if err != nil {
			return nil, err
		}
		return &timedWire{Wire: w, rec: rec}, nil
	}
}

type timedWire struct {
	wire.Wire
	rec *span.Recorder
}

func (w *timedWire) Attach(addr xk.EthAddr) (wire.Link, error) {
	l, err := w.Wire.Attach(addr)
	if err != nil {
		return nil, err
	}
	return &timedLink{Link: l, w: w}, nil
}

func (w *timedWire) Detach(l wire.Link) { w.Wire.Detach(unwrapLink(l)) }

func unwrapLink(l wire.Link) wire.Link {
	if tl, ok := l.(*timedLink); ok {
		return tl.Link
	}
	return l
}

type timedLink struct {
	wire.Link
	w *timedWire
}

func (l *timedLink) Send(dst xk.EthAddr, frame []byte) error {
	rec := l.w.rec
	if !rec.Enabled() {
		return l.Link.Send(dst, frame)
	}
	sid := rec.Begin("wire", dirSend, 0, 0, len(frame), rec.NowNs())
	err := l.Link.Send(dst, frame)
	rec.End(sid, rec.NowNs(), span.ErrString(err))
	return err
}

func (l *timedLink) SetReceiver(f func(frame []byte)) {
	if f == nil {
		l.Link.SetReceiver(nil)
		return
	}
	rec := l.w.rec
	l.Link.SetReceiver(func(frame []byte) {
		if !rec.Enabled() {
			f(frame)
			return
		}
		sid := rec.Begin("wire", dirUpcall, 0, 0, len(frame), rec.NowNs())
		f(frame)
		rec.End(sid, rec.NowNs(), "")
	})
}

package vip

import (
	"fmt"

	"xkernel/internal/proto/ip"
	"xkernel/internal/xk"
)

// Addr is VIPaddr, the open-time-only virtual protocol of §4.3: "Unlike
// VIP, VIPaddr is only involved at open time; it opens a lower-level IP
// or ETH session and returns it rather than returning a session of its
// own." After open, VIPaddr is entirely out of the message path — the
// invoking protocol holds an ETH or IP session directly.
type Addr struct {
	xk.BaseProtocol
	ethp xk.Protocol
	ipp  xk.Protocol
	arp  Resolver

	ethMTU int
}

// NewAddr creates VIPaddr above ethp and ipp.
func NewAddr(name string, ethp, ipp xk.Protocol, res Resolver) (*Addr, error) {
	v, err := ethp.Control(xk.CtlGetMTU, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: eth MTU: %w", name, err)
	}
	return &Addr{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		ethp:         ethp,
		ipp:          ipp,
		arp:          res,
		ethMTU:       v.(int),
	}, nil
}

// Open resolves the destination and returns the appropriate lower
// session directly, bound to hlp — not to VIPaddr.
func (a *Addr) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	proto, remote, err := popVIPAddrs(ps)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", a.Name(), err)
	}
	maxMsg := 0
	if v, err := hlp.Control(xk.CtlHLPMaxMsg, nil); err == nil {
		maxMsg = v.(int)
	}
	if hw, rerr := a.arp.Resolve(remote); rerr == nil && maxMsg > 0 && maxMsg <= a.ethMTU {
		return a.ethp.Open(hlp, xk.NewParticipants(
			xk.NewParticipant(ethType(proto)),
			xk.NewParticipant(hw),
		))
	}
	return a.ipp.Open(hlp, xk.NewParticipants(
		xk.NewParticipant(proto),
		xk.NewParticipant(remote),
	))
}

// OpenEnable passes hlp straight through to both lower protocols, so
// their passive opens complete directly against hlp — VIPaddr never sees
// the traffic.
func (a *Addr) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", a.Name(), err)
	}
	if err := a.ethp.OpenEnable(hlp, xk.LocalOnly(xk.NewParticipant(ethType(proto)))); err != nil {
		return err
	}
	return a.ipp.OpenEnable(hlp, xk.LocalOnly(xk.NewParticipant(proto)))
}

// OpenDisable revokes both lower enables.
func (a *Addr) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", a.Name(), err)
	}
	if err := a.ethp.OpenDisable(hlp, xk.LocalOnly(xk.NewParticipant(ethType(proto)))); err != nil {
		return err
	}
	return a.ipp.OpenDisable(hlp, xk.LocalOnly(xk.NewParticipant(proto)))
}

// Control forwards capability queries.
func (a *Addr) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetMTU:
		return a.ipp.Control(xk.CtlGetMTU, nil)
	case xk.CtlGetOptPacket:
		return a.ethMTU, nil
	case xk.CtlGetMyHost:
		return a.ipp.Control(xk.CtlGetMyHost, nil)
	default:
		return nil, xk.ErrOpNotSupported
	}
}

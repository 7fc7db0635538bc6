package bench

import (
	"errors"
	"testing"

	"xkernel/internal/ledger"
	"xkernel/internal/rpc/mrpc"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/xk"
)

func TestParseStack(t *testing.T) {
	cases := []struct {
		in   Stack
		base Stack
		spec string // "" = nil spec
		bad  bool
	}{
		{in: LRPCVIP, base: LRPCVIP},
		{in: LRPCVIP + "+mem", base: LRPCVIP, spec: "mem"},
		{in: LRPCVIP + "+wal-always", base: LRPCVIP, spec: "wal-always"},
		{in: MRPCVIP + "+wal-interval", base: MRPCVIP, spec: "wal-interval"},
		{in: NRPC + "+wal-never", base: NRPC, spec: "wal-never"},
		{in: LRPCVIP + "+wal-sometimes", bad: true},
		{in: LRPCVIP + "+disk", bad: true},
	}
	for _, c := range cases {
		base, spec, err := ParseStack(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseStack(%q): no error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStack(%q): %v", c.in, err)
			continue
		}
		if base != c.base {
			t.Errorf("ParseStack(%q) base = %q, want %q", c.in, base, c.base)
		}
		got := ""
		if spec != nil {
			got = spec.String()
		}
		if got != c.spec {
			t.Errorf("ParseStack(%q) spec = %q, want %q", c.in, got, c.spec)
		}
		if b := c.in.Base(); b != c.base {
			t.Errorf("%q.Base() = %q, want %q", c.in, b, c.base)
		}
	}
}

func TestLedgeredStacksRoundTrip(t *testing.T) {
	for _, stack := range []Stack{
		LRPCVIP + "+mem",
		LRPCVIP + "+wal-always",
		MRPCVIP + "+wal-always",
		NRPC + "+wal-never",
		SelChanVIPsize + "+wal-always",
		ChanFragVIP + "+wal-always",
	} {
		t.Run(string(stack), func(t *testing.T) {
			tb, err := Build(stack, sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			if tb.LedgerStats == nil || tb.ClientReboot == nil || tb.LedgerReplays == nil {
				t.Fatal("ledger hooks not populated")
			}
			for i := 0; i < 3; i++ {
				if err := tb.End.RoundTrip(nil); err != nil {
					t.Fatal(err)
				}
			}
			st := tb.LedgerStats()
			if st.Appends == 0 {
				t.Fatalf("no ledger appends after 3 calls: %+v", st)
			}
			if _, spec, _ := ParseStack(stack); spec.Kind == "wal" {
				if _, ok := tb.Ledger.(*ledger.File); !ok {
					t.Fatalf("ledger is %T, want *ledger.File", tb.Ledger)
				}
				if st.Bytes == 0 {
					t.Fatalf("file ledger recorded no bytes: %+v", st)
				}
			}
		})
	}
}

func TestUnledgerableStackRejectsSuffix(t *testing.T) {
	for _, stack := range []Stack{
		VIPOnly + "+wal-always",
		UDPIP + "+mem",
		SunRPCVIP + "+wal-never",
	} {
		if _, err := Build(stack, sim.Config{}, nil); err == nil {
			t.Errorf("Build(%q) accepted a ledger on a stack without at-most-once state", stack)
		}
	}
}

// failingLedger is an in-memory execution ledger whose Reboot and
// Retire always fail.
type failingLedger struct{ ledger.ExecLedger }

var errLedgerDown = errors.New("ledger down")

func (failingLedger) Reboot() error           { return errLedgerDown }
func (failingLedger) Retire(ledger.Key) error { return errLedgerDown }

// TestLedgerErrorsCounted: neither a server reboot nor a peer reboot
// has a caller to return a ledger failure to, so CHANNEL and M.RPC
// count them in Stats.LedgerErrors. A client reboot makes the server
// Retire the dead incarnation's entry; a server reboot crashes the
// ledger with the host.
func TestLedgerErrorsCounted(t *testing.T) {
	type rig struct {
		end                        Endpoint
		clientReboot, serverReboot func()
		ledgerErrors               func() int64
	}
	cases := []struct {
		name  string
		build func(cli, srv *stacks.Host, led ledger.ExecLedger) (rig, error)
	}{
		{"channel", func(cli, srv *stacks.Host, led ledger.ExecLedger) (rig, error) {
			cp, err := buildLayeredHost(cli, nil, 3, nil, nil)
			if err != nil {
				return rig{}, err
			}
			sp, err := buildLayeredHost(srv, nil, 3, nil, led)
			if err != nil {
				return rig{}, err
			}
			if _, err := enableChannelServer(sp.chn, nil); err != nil {
				return rig{}, err
			}
			end, err := openChannelEndpoint(cp.chn, 0)
			return rig{end, cp.chn.Reboot, sp.chn.Reboot,
				func() int64 { return sp.chn.Stats().LedgerErrors }}, err
		}},
		{"mrpc", func(cli, srv *stacks.Host, led ledger.ExecLedger) (rig, error) {
			mk := func(h *stacks.Host, cfg mrpc.Config) (*mrpc.Protocol, error) {
				v, err := newVIP(h, nil)
				if err != nil {
					return nil, err
				}
				return mrpc.New(h.Name+"/mrpc", v, hostAddr(h), cfg)
			}
			// One client channel, so the call after the client reboot
			// reuses the server channel state the first call created.
			cp, err := mk(cli, mrpc.Config{NumChannels: 1})
			if err != nil {
				return rig{}, err
			}
			sp, err := mk(srv, mrpc.Config{Ledger: led})
			if err != nil {
				return rig{}, err
			}
			registerMRPCHandlers(sp, nil)
			s, err := cp.Open(xk.NewApp("client/app", nil), &xk.Participants{Remote: xk.NewParticipant(ServerAddr)})
			if err != nil {
				return rig{}, err
			}
			return rig{&mrpcEndpoint{s: s.(*mrpc.Session)}, cp.Reboot, sp.Reboot,
				func() int64 { return sp.Stats().LedgerErrors }}, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cli, srv, _, err := stacks.TwoHosts(sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.build(cli, srv, failingLedger{ledger.NewMem(ledger.MemOptions{})})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.end.RoundTrip(nil); err != nil {
				t.Fatal(err)
			}
			if n := r.ledgerErrors(); n != 0 {
				t.Fatalf("after a clean call LedgerErrors = %d, want 0", n)
			}
			r.clientReboot()
			if err := r.end.RoundTrip(nil); err != nil {
				t.Fatalf("call from the rebooted client: %v", err)
			}
			if n := r.ledgerErrors(); n != 1 {
				t.Fatalf("after a failed Retire LedgerErrors = %d, want 1", n)
			}
			r.serverReboot()
			if n := r.ledgerErrors(); n != 2 {
				t.Fatalf("after a failed Reboot LedgerErrors = %d, want 2", n)
			}
		})
	}
}

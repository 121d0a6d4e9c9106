package core6

import (
	"io"
	"sync"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/netsim6"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
)

type env struct {
	topo  *netsim6.Topology
	clock *simclock.Virtual
	net   *netsim6.Net
	cfg   Config
}

func newEnv(t testing.TB, prefixes, perPrefix int, seed int64) *env {
	t.Helper()
	p := netsim6.DefaultParams(seed)
	p.Prefixes = prefixes
	p.TargetsPerPrefix = perPrefix
	topo := netsim6.NewTopology(p)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := netsim6.New(topo, clock)
	cfg := DefaultConfig()
	cfg.Targets = topo.Targets()
	cfg.Source = topo.Vantage()
	cfg.Seed = seed
	cfg.PPS = 50_000
	return &env{topo: topo, clock: clock, net: n, cfg: cfg}
}

func (e *env) run(t testing.TB) *Result {
	t.Helper()
	sc, err := NewScanner(e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScan6Completes(t *testing.T) {
	e := newEnv(t, 128, 8, 1)
	res := e.run(t)
	if res.ProbesSent == 0 || res.Store.Interfaces().Len() == 0 {
		t.Fatalf("empty scan: %d probes %d ifaces", res.ProbesSent, res.Store.Interfaces().Len())
	}
	if res.Store.ReachedCount() == 0 {
		t.Fatal("no targets reached")
	}
	// Candidate lists are pre-filtered; most targets should answer.
	frac := float64(res.Store.ReachedCount()) / float64(len(e.cfg.Targets))
	if frac < 0.3 {
		t.Fatalf("reached fraction %.2f too low for a candidate list", frac)
	}
	t.Logf("ipv6: %d targets, %d probes, %d ifaces, %d reached, %v",
		len(e.cfg.Targets), res.ProbesSent, res.Store.Interfaces().Len(), res.Store.ReachedCount(), res.ScanTime)
}

// TestPreprobe6MeasuresDistances: the one-probe distance measurement must
// carry over to IPv6 and match ground truth.
func TestPreprobe6MeasuresDistances(t *testing.T) {
	e := newEnv(t, 256, 8, 2)
	res := e.run(t)
	if res.DistancesMeasured == 0 {
		t.Fatal("no distances measured")
	}
	if res.DistancesPredicted == 0 {
		t.Fatal("same-prefix prediction produced nothing")
	}
	t.Logf("measured=%d predicted=%d of %d targets",
		res.DistancesMeasured, res.DistancesPredicted, len(e.cfg.Targets))
}

// TestRedundancyElimination6: the stop set must save probes in IPv6 too.
func TestRedundancyElimination6(t *testing.T) {
	on := newEnv(t, 256, 8, 3)
	resOn := on.run(t)

	off := newEnv(t, 256, 8, 3)
	off.cfg.NoRedundancyElimination = true
	resOff := off.run(t)

	if resOff.ProbesSent < resOn.ProbesSent*3/2 {
		t.Fatalf("elimination saved too little: on=%d off=%d", resOn.ProbesSent, resOff.ProbesSent)
	}
	if float64(resOn.Store.Interfaces().Len()) < 0.9*float64(resOff.Store.Interfaces().Len()) {
		t.Fatalf("elimination lost interfaces: %d vs %d",
			resOn.Store.Interfaces().Len(), resOff.Store.Interfaces().Len())
	}
	t.Logf("on: %d probes/%d ifaces; off: %d probes/%d ifaces",
		resOn.ProbesSent, resOn.Store.Interfaces().Len(), resOff.ProbesSent, resOff.Store.Interfaces().Len())
}

// TestRoutes6AreCoherent: collected routes match the simulator's ground
// truth distances.
func TestRoutes6AreCoherent(t *testing.T) {
	e := newEnv(t, 128, 4, 4)
	e.cfg.CollectRoutes = true
	res := e.run(t)
	checked := 0
	for _, dst := range e.cfg.Targets {
		r := res.Store.Route(dst)
		if r == nil || !r.Reached {
			continue
		}
		truth := e.topo.DistanceNow(dst)
		if truth == 0 {
			continue
		}
		if r.Length != truth {
			t.Fatalf("route length %d != ground truth %d for %s", r.Length, truth, dst)
		}
		for _, h := range r.Hops {
			if h.TTL > r.Length {
				t.Fatalf("hop beyond route end: %+v", h)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("too few routes checked: %d", checked)
	}
}

func TestScanner6Validation(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if _, err := NewScanner(Config{}, nil, clock); err == nil {
		t.Fatal("empty targets accepted")
	}
	cfg := DefaultConfig()
	cfg.Targets = []probe6.Addr{{0x20}}
	cfg.SplitTTL = 99
	if _, err := NewScanner(cfg, nil, clock); err == nil {
		t.Fatal("bad split accepted")
	}
}

// stubConn serves a fixed set of response packets, then EOF; writes are
// discarded. It lets tests inject hand-crafted responses into a full
// scanner run.
type stubConn struct {
	mu   sync.Mutex
	pkts [][]byte
}

func (c *stubConn) WritePacket(p []byte) error { return nil }

func (c *stubConn) ReadPacket(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pkts) == 0 {
		return 0, io.EOF
	}
	p := c.pkts[0]
	c.pkts = c.pkts[1:]
	return copy(buf, p), nil
}

func (c *stubConn) Close() error { return nil }

func TestSparseIndexIgnoresForeignResponses(t *testing.T) {
	// A response quoting a destination outside the target list must be
	// dropped, not crash or misattribute.
	e := newEnv(t, 8, 4, 5)
	e.cfg.Preprobe = false // probe into the void; only the injected reply arrives
	var foreign probe6.Addr
	foreign[0] = 0xfd
	var pkt [probe6.HeaderLen + probe6.ICMPErrorLen]byte
	quote := probe6.Header{NextHeader: probe6.ProtoUDP, HopLimit: 3, Dst: foreign}
	outer := probe6.Header{
		PayloadLength: probe6.ICMPErrorLen,
		NextHeader:    probe6.ProtoICMPv6,
		HopLimit:      64,
		Src:           foreign,
		Dst:           e.topo.Vantage(),
	}
	outer.Marshal(pkt[:])
	var tp [8]byte
	// Source port must satisfy the checksum test for the lookup to even
	// be attempted.
	cs := probe6.AddrChecksum(foreign)
	tp[0], tp[1] = byte(cs>>8), byte(cs)
	tp[4], tp[5] = 0, probe6.UDPHeaderLen
	probe6.MarshalICMPError(pkt[probe6.HeaderLen:], probe6.ICMP6TypeTimeExceeded,
		probe6.ICMP6CodeHopLimit, &quote, tp[:])
	sc, err := NewScanner(e.cfg, &stubConn{pkts: [][]byte{pkt[:]}}, e.clock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.UnparsedResponses != 1 {
		t.Fatalf("foreign response not dropped: unparsed=%d", res.UnparsedResponses)
	}
	if res.Store.Interfaces().Len() != 0 {
		t.Fatalf("foreign response misattributed: %d interfaces", res.Store.Interfaces().Len())
	}
}

package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/probe"
)

// TestReceiverSurvivesGarbage: the receiving thread must treat arbitrary
// bytes as noise — count them, never panic, never corrupt state. (On a
// raw socket the receiver sees every ICMP packet on the host.)
func TestReceiverSurvivesGarbage(t *testing.T) {
	e := newEnv(t, 64, 1)
	sc, err := NewScanner(e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		n := 1 + rng.Intn(128)
		pkt := make([]byte, n)
		rng.Read(pkt)
		sc.recvWorkers[0].handlePacket(pkt)
	}
	if sc.unparsed.Load() == 0 {
		t.Fatal("garbage not counted")
	}
}

// TestReceiverSurvivesHostileQuotes: syntactically valid ICMP responses
// with adversarial quoted fields (wrong ports, out-of-universe
// destinations, foreign protocols) must be rejected without panics or
// misattribution.
func TestReceiverSurvivesHostileQuotes(t *testing.T) {
	e := newEnv(t, 64, 2)
	sc, err := NewScanner(e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}

	build := func(mut func(q *probe.IPv4, tp []byte)) []byte {
		var pbuf [128]byte
		dst := e.cfg.Targets(5)
		n := probe.BuildFlashProbe(pbuf[:], e.cfg.Source, dst, 10, false, 0, 0, probe.TracerouteDstPort)
		var quoted probe.IPv4
		if err := quoted.Unmarshal(pbuf[:n]); err != nil {
			t.Fatal(err)
		}
		quoted.TTL = 1
		tp := make([]byte, 8)
		copy(tp, pbuf[probe.IPv4HeaderLen:probe.IPv4HeaderLen+8])
		if mut != nil {
			mut(&quoted, tp)
		}
		pkt := make([]byte, probe.IPv4HeaderLen+probe.ICMPErrorLen)
		outer := probe.IPv4{
			TotalLength: uint16(len(pkt)),
			TTL:         64,
			Protocol:    probe.ProtoICMP,
			Src:         0xF0000009,
			Dst:         e.cfg.Source,
		}
		outer.Marshal(pkt)
		probe.MarshalICMPError(pkt[probe.IPv4HeaderLen:], probe.ICMPTypeTimeExceeded, 0, &quoted, tp)
		return pkt
	}

	// Destination rewritten to a foreign universe -> checksum mismatch.
	sc.recvWorkers[0].handlePacket(build(func(q *probe.IPv4, tp []byte) { q.Dst = 0xDEADBEEF }))
	if sc.mismatched.Load() != 1 {
		t.Fatalf("foreign-dst not counted as mismatch: %d", sc.mismatched.Load())
	}
	// Source port zeroed -> checksum mismatch.
	sc.recvWorkers[0].handlePacket(build(func(q *probe.IPv4, tp []byte) { tp[0], tp[1] = 0, 0 }))
	if sc.mismatched.Load() != 2 {
		t.Fatal("zeroed source port not counted")
	}
	// Quoted protocol TCP -> unparsable quote.
	before := sc.unparsed.Load()
	sc.recvWorkers[0].handlePacket(build(func(q *probe.IPv4, tp []byte) { q.Protocol = probe.ProtoTCP }))
	if sc.unparsed.Load() != before+1 {
		t.Fatal("TCP quote not rejected")
	}
	// Valid response still works after all the hostility.
	sc.recvWorkers[0].handlePacket(build(nil))
	if sc.recvWorkers[0].store.Interfaces().Len() != 1 {
		t.Fatalf("valid response not processed: %d interfaces", sc.recvWorkers[0].store.Interfaces().Len())
	}
}

// TestScanWithDroppedWrites: an unreliable transport (every write
// errors, permanently) must not wedge the scan — it completes with zero
// discoveries, every failed send surfaced in SendErrors and none of them
// miscounted as sent.
func TestScanWithDroppedWrites(t *testing.T) {
	e := newEnv(t, 64, 3)
	conn := &flakyConn{inner: e.net.NewConn()}
	sc, err := NewScanner(e.cfg, conn, e.clock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Interfaces().Len() != 0 {
		t.Fatal("discoveries without any delivered probe")
	}
	if res.ProbesSent != 0 {
		t.Fatalf("failed writes counted as sent: %d", res.ProbesSent)
	}
	if res.SendErrors == 0 {
		t.Fatal("failed writes not surfaced in SendErrors")
	}
	if res.SendRetries != 0 {
		t.Fatalf("permanent errors must not be retried: %d retries", res.SendRetries)
	}
}

// TestScanWithTransientWriteErrors: writes that fail with a Temporary()
// error are retried with backoff and succeed on the next attempt — the
// scan discovers exactly what a clean transport does, every retry is
// surfaced in SendRetries, and nothing lands in SendErrors.
func TestScanWithTransientWriteErrors(t *testing.T) {
	clean := newLockstepEnv(t, 256, 4).runReceivers(t, 1, 1)

	e := newLockstepEnv(t, 256, 4)
	conn := &transientConn{inner: e.net.NewConn()}
	sc, err := NewScanner(e.cfg, conn, e.clock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fp, want := fpOf(res), fpOf(clean); fp != want {
		t.Errorf("transient write errors changed the topology: fingerprint %#x, want %#x", fp, want)
	}
	if res.SendRetries == 0 {
		t.Error("transient failures not retried")
	}
	if res.SendErrors != 0 {
		t.Errorf("recovered sends wrongly surfaced as errors: %d", res.SendErrors)
	}
	if res.ProbesSent != clean.ProbesSent {
		t.Errorf("probe counts diverge: %d with retries, %d clean", res.ProbesSent, clean.ProbesSent)
	}
}

// transientConn fails every 50th write attempt with a Temporary() error;
// the immediate retry (the next attempt) goes through. Single sender, so
// no synchronization needed on the counter.
type transientConn struct {
	inner    PacketConn
	attempts int
}

func (c *transientConn) WritePacket(p []byte) error {
	c.attempts++
	if c.attempts%50 == 0 {
		return errTransient
	}
	return c.inner.WritePacket(p)
}
func (c *transientConn) ReadPacket(buf []byte) (int, error) {
	return c.inner.ReadPacket(buf)
}
func (c *transientConn) Close() error { return c.inner.Close() }

var errTransient = &transientErr{}

type transientErr struct{}

func (*transientErr) Error() string   { return "transient write failure" }
func (*transientErr) Temporary() bool { return true }

type flakyConn struct {
	inner PacketConn
}

func (f *flakyConn) WritePacket([]byte) error { return errDropped }
func (f *flakyConn) ReadPacket(buf []byte) (int, error) {
	return f.inner.ReadPacket(buf)
}
func (f *flakyConn) Close() error { return f.inner.Close() }

var errDropped = &droppedErr{}

type droppedErr struct{}

func (*droppedErr) Error() string { return "dropped" }

// TestVirtualRealClockAgreement (DESIGN.md ablation 2): a small scan on
// the real clock must report the same probe counts and a scan time within
// pacing slop of its virtual-clock twin.
func TestVirtualRealClockAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock scan takes seconds")
	}
	virt := newEnv(t, 96, 9)
	virt.cfg.PPS = 2000
	virt.cfg.DrainWait = 300 * time.Millisecond
	vres := virt.run(t)

	realEnv := newEnvOnRealClock(t, 96, 9)
	realEnv.cfg.PPS = 2000
	realEnv.cfg.DrainWait = 300 * time.Millisecond
	rres := realEnv.run(t)

	if diffPct(vres.ProbesSent, rres.ProbesSent) > 15 {
		t.Fatalf("probe counts diverge: virtual=%d real=%d", vres.ProbesSent, rres.ProbesSent)
	}
	ratio := float64(rres.ScanTime) / float64(vres.ScanTime)
	if ratio < 0.7 || ratio > 1.5 {
		t.Fatalf("scan times diverge: virtual=%v real=%v", vres.ScanTime, rres.ScanTime)
	}
	t.Logf("virtual: %d probes/%v; real: %d probes/%v",
		vres.ProbesSent, vres.ScanTime, rres.ProbesSent, rres.ScanTime)
}

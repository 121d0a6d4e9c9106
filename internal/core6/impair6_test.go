package core6

import (
	"bytes"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/netsim6"
	"github.com/flashroute/flashroute/internal/probe6"
)

// newLockstepEnv6 builds an IPv6 environment whose response behavior is a
// pure function of which probes are sent, independent of when they are
// sent: no per-interface ICMP rate limiting and no RTT jitter (the v6
// topology has no route dynamics to disable). With redundancy elimination
// off as well — the stop set couples targets through reply order — the
// discovered topology depends only on the probe set, so runs with
// different Senders values or monotone impairments compare exactly.
func newLockstepEnv6(t testing.TB, prefixes, perPrefix int, seed int64) *env {
	t.Helper()
	e := newEnv(t, prefixes, perPrefix, seed)
	e.topo.P.ICMPRateLimitPPS = 0
	e.topo.P.JitterRTT = 0
	e.cfg.NoRedundancyElimination = true
	return e
}

// reachedSet6 collects the targets a scan reached.
func reachedSet6(res *Result, targets []probe6.Addr) map[probe6.Addr]bool {
	m := make(map[probe6.Addr]bool)
	for _, dst := range targets {
		if rt := res.Store.Route(dst); rt != nil && rt.Reached {
			m[dst] = true
		}
	}
	return m
}

// TestImpairmentDeterminism6: same topology seed + same Impairments ⇒ the
// same IPv6 scan, reply for reply. Two runs must agree on the
// fingerprint, the probe count and every impairment counter — the v6
// engine inherits the v4 guarantee through the shared core.
func TestImpairmentDeterminism6(t *testing.T) {
	im := netsim6.Impairments{
		LossProb:      0.08,
		GEGoodToBad:   0.01,
		GEBadToGood:   0.25,
		GEBadLoss:     0.5,
		DupProb:       0.03,
		ReorderProb:   0.05,
		ReorderWindow: 40 * time.Millisecond,
		ExtraJitter:   10 * time.Millisecond,
	}
	run := func() (*Result, *netsim6.Stats) {
		e := newEnv(t, 256, 8, 7)
		e.topo.P.Impair = im
		e.cfg.PreprobeRetries = 1
		e.cfg.ForwardRetries = 1
		return e.run(t), &e.net.Stats
	}
	r1, s1 := run()
	r2, s2 := run()

	if fp1, fp2 := fpOf6(r1, nil), fpOf6(r2, nil); fp1 != fp2 {
		t.Errorf("fingerprints differ across identical runs: %#x vs %#x", fp1, fp2)
	}
	if r1.ProbesSent != r2.ProbesSent {
		t.Errorf("probe counts differ: %d vs %d", r1.ProbesSent, r2.ProbesSent)
	}
	if r1.RetransmittedProbes != r2.RetransmittedProbes {
		t.Errorf("retransmit counts differ: %d vs %d", r1.RetransmittedProbes, r2.RetransmittedProbes)
	}
	if r1.DuplicateResponses != r2.DuplicateResponses {
		t.Errorf("duplicate counts differ: %d vs %d", r1.DuplicateResponses, r2.DuplicateResponses)
	}
	for _, c := range []struct {
		name string
		a, b uint64
	}{
		{"ProbesLost", s1.ProbesLost.Load(), s2.ProbesLost.Load()},
		{"RepliesLost", s1.RepliesLost.Load(), s2.RepliesLost.Load()},
		{"Duplicates", s1.Duplicates.Load(), s2.Duplicates.Load()},
		{"Reordered", s1.Reordered.Load(), s2.Reordered.Load()},
	} {
		if c.a != c.b {
			t.Errorf("netsim6 %s differs: %d vs %d", c.name, c.a, c.b)
		}
		if c.a == 0 {
			t.Errorf("netsim6 %s is zero — impairment not exercised", c.name)
		}
	}
	t.Logf("probes=%d retransmits=%d dups=%d interfaces=%d",
		r1.ProbesSent, r1.RetransmittedProbes, r1.DuplicateResponses, r1.Store.Interfaces().Len())
}

// TestMultiSenderInvariant6: in the lockstep environment the discovered
// topology is a pure function of the probe set, which does not depend on
// how the permuted order is sharded — one sender and four must find
// exactly the same interfaces and reach exactly the same targets.
func TestMultiSenderInvariant6(t *testing.T) {
	run := func(senders int) (*Result, []probe6.Addr) {
		e := newLockstepEnv6(t, 256, 8, 9)
		e.cfg.Senders = senders
		return e.run(t), e.cfg.Targets
	}
	one, targets := run(1)
	four, _ := run(4)

	i1, i4 := sortedIfaces(one), sortedIfaces(four)
	if len(i1) != len(i4) {
		t.Fatalf("interface counts differ: 1 sender=%d, 4 senders=%d", len(i1), len(i4))
	}
	for k := range i1 {
		if !bytes.Equal(i1[k][:], i4[k][:]) {
			t.Fatalf("interface sets diverge at %d: %s vs %s", k, i1[k], i4[k])
		}
	}
	r1, r4 := reachedSet6(one, targets), reachedSet6(four, targets)
	if len(r1) != len(r4) {
		t.Fatalf("reached counts differ: 1 sender=%d, 4 senders=%d", len(r1), len(r4))
	}
	for d := range r1 {
		if !r4[d] {
			t.Fatalf("target %s reached only with 1 sender", d)
		}
	}
	t.Logf("invariant holds: %d interfaces, %d reached", len(i1), len(r1))
}

// TestMultiSenderImpaired6: the sharded sender path composes with the
// impairment layer and the retry machinery — a 4-sender scan under loss
// and duplication must complete, retry, and discover a subset of what the
// clean 4-sender scan finds (loss is monotone in lockstep).
func TestMultiSenderImpaired6(t *testing.T) {
	run := func(im netsim6.Impairments) (*Result, []probe6.Addr) {
		e := newLockstepEnv6(t, 256, 8, 13)
		e.cfg.Senders = 4
		e.cfg.ForwardRetries = 1
		e.topo.P.Impair = im
		return e.run(t), e.cfg.Targets
	}
	clean, targets := run(netsim6.Impairments{})
	lossy, _ := run(netsim6.Impairments{LossProb: 0.15, DupProb: 0.05})

	ci, li := sortedIfaces(clean), sortedIfaces(lossy)
	cset := make(map[probe6.Addr]bool, len(ci))
	for _, a := range ci {
		cset[a] = true
	}
	for _, a := range li {
		if !cset[a] {
			t.Errorf("interface %s discovered only under loss", a)
		}
	}
	cr, lr := reachedSet6(clean, targets), reachedSet6(lossy, targets)
	for d := range lr {
		if !cr[d] {
			t.Errorf("target %s reached only under loss", d)
		}
	}
	if lossy.RetransmittedProbes == 0 {
		t.Error("impaired multi-sender run recorded no retransmits")
	}
	t.Logf("interfaces: clean=%d lossy=%d; reached: clean=%d lossy=%d (retransmits=%d)",
		len(ci), len(li), len(cr), len(lr), lossy.RetransmittedProbes)
}

// TestPreprobeRetry6: under loss, preprobe retry passes must recover
// measured distances a single pass lost.
func TestPreprobeRetry6(t *testing.T) {
	run := func(retries int) *Result {
		e := newEnv(t, 256, 8, 1)
		e.topo.P.Impair = netsim6.Impairments{LossProb: 0.30}
		e.cfg.PreprobeRetries = retries
		return e.run(t)
	}
	plain := run(0)
	retried := run(2)

	if retried.RetransmittedProbes == 0 {
		t.Fatal("retry runs recorded no retransmitted probes")
	}
	if retried.DistancesMeasured <= plain.DistancesMeasured {
		t.Errorf("retries measured %d distances, single pass %d — no recovery",
			retried.DistancesMeasured, plain.DistancesMeasured)
	}
	t.Logf("measured: plain=%d retried=%d (retransmits=%d)",
		plain.DistancesMeasured, retried.DistancesMeasured, retried.RetransmittedProbes)
}

// TestForwardRetry6: under loss, rewinding the silent forward gap must
// not lose discovery relative to giving up (lockstep environment, where
// retransmissions cannot cost unrelated replies).
func TestForwardRetry6(t *testing.T) {
	run := func(retries int) (*Result, []probe6.Addr) {
		e := newLockstepEnv6(t, 256, 8, 1)
		e.topo.P.Impair = netsim6.Impairments{LossProb: 0.15}
		e.cfg.ForwardRetries = retries
		return e.run(t), e.cfg.Targets
	}
	plain, targets := run(0)
	retried, _ := run(1)

	if retried.RetransmittedProbes == 0 {
		t.Fatal("forward retries recorded no retransmitted probes")
	}
	ip, ir := plain.Store.Interfaces().Len(), retried.Store.Interfaces().Len()
	rp, rr := len(reachedSet6(plain, targets)), len(reachedSet6(retried, targets))
	if ir < ip {
		t.Errorf("forward retries discovered fewer interfaces: %d < %d", ir, ip)
	}
	if rr < rp {
		t.Errorf("forward retries reached fewer targets: %d < %d", rr, rp)
	}
	t.Logf("interfaces: plain=%d retried=%d; reached: plain=%d retried=%d (retransmits=%d)",
		ip, ir, rp, rr, retried.RetransmittedProbes)
}

// TestDuplicateReplyDedup6 is the regression test for the duplicate-reply
// guard the v6 engine inherits from the shared core: with every packet
// duplicated, a duplicated Hop-Limit-Exceeded reply must neither change
// the discovered topology nor double-count a hop in any route (before the
// guard, each duplicated reply re-appended its interface at the same
// hop limit and could terminate backward probing early against its own
// stop-set entry).
func TestDuplicateReplyDedup6(t *testing.T) {
	run := func(dup float64) (*Result, []probe6.Addr) {
		e := newLockstepEnv6(t, 256, 8, 11)
		e.cfg.CollectRoutes = true
		e.topo.P.Impair = netsim6.Impairments{DupProb: dup}
		return e.run(t), e.cfg.Targets
	}
	clean, targets := run(0)
	duped, _ := run(1)

	if fc, fd := fpOf6(clean, targets), fpOf6(duped, targets); fc != fd {
		t.Errorf("duplication changed the discovered topology: %#x vs %#x", fc, fd)
	}
	if duped.DuplicateResponses == 0 {
		t.Error("DupProb=1 produced no counted duplicate responses")
	}
	for _, dst := range targets {
		rt := duped.Store.Route(dst)
		if rt == nil {
			continue
		}
		seen := make(map[uint8]int, len(rt.Hops))
		for _, h := range rt.Hops {
			seen[h.TTL]++
			if seen[h.TTL] > 1 {
				t.Fatalf("route to %s double-counts hop limit %d under duplication", dst, h.TTL)
			}
		}
	}
	t.Logf("interfaces=%d duplicates discarded=%d",
		duped.Store.Interfaces().Len(), duped.DuplicateResponses)
}

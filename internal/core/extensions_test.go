package core

import (
	"testing"
	"unsafe"
)

func diffPct(a, b uint64) float64 {
	hi, lo := a, b
	if lo > hi {
		hi, lo = lo, hi
	}
	if lo == 0 {
		return 100
	}
	return 100 * float64(hi-lo) / float64(lo)
}

// TestFootprintAccounting verifies the §3.4/§5.4 memory math: the control
// state for the full 2^24 /24 universe must land in the hundreds of
// megabytes (the paper reports ~900 MB for its C++ layout), and one
// target per /28 must stay under the paper's ~15 GB bound.
func TestFootprintAccounting(t *testing.T) {
	var d dcb
	if unsafe.Sizeof(d) > 24 {
		t.Fatalf("dcb grew to %d bytes; keep it compact", unsafe.Sizeof(d))
	}

	full24 := EstimateFootprint(1 << 24)
	control := full24.Total() - full24.ResultBytes
	if control < 300<<20 || control > 1<<30 {
		t.Fatalf("full /24 control state %d bytes outside [300MB, 1GB]", control)
	}
	if full24.LockBytes != 8<<24 {
		t.Fatalf("lock accounting wrong: %d", full24.LockBytes)
	}
	// The stop set is control state too: one 4-byte slot per entry at the
	// engine's one-entry-per-eight-blocks sizing, 2^22 slots here.
	if full24.StopSetBytes != 16<<20 {
		t.Fatalf("stop-set accounting wrong: %d", full24.StopSetBytes)
	}

	// The result-store estimate — the side the paper leaves implicit —
	// must be priced too: collected routes for the full /24 universe cost
	// a few GB of slab, far more than the control state, and the whole
	// estimate stays in single-digit GB.
	if full24.ResultBytes < control {
		t.Fatalf("result estimate %d below control state %d — hop slab unpriced?",
			full24.ResultBytes, control)
	}
	if full24.Total() > 10<<30 {
		t.Fatalf("full /24 total %d exceeds 10 GB — estimate model inflated", full24.Total())
	}

	full28 := EstimateFootprint(1 << 28)
	if c28 := full28.Total() - full28.ResultBytes; c28 > 15<<30 {
		t.Fatalf("/28 control state %d bytes exceeds the paper's ~15 GB bound", c28)
	}
}

// TestScannerFootprintMatchesEstimate: the scanner reports its own
// configured footprint. Control-state fields match the estimate exactly;
// ResultBytes is the store's live allocation — nonzero from construction
// (record capacity, slot array, interface table) and below the estimate's
// every-block-responds ceiling until the scan fills the slab.
func TestScannerFootprintMatchesEstimate(t *testing.T) {
	e := newEnv(t, 4096, 1)
	sc, err := NewScanner(e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	got, want := sc.Footprint(), EstimateFootprint(4096)
	if got.Blocks != want.Blocks || got.DCBBytes != want.DCBBytes ||
		got.LockBytes != want.LockBytes || got.SideBytes != want.SideBytes ||
		got.StopSetBytes != want.StopSetBytes {
		t.Fatalf("control footprint %+v want %+v", got, want)
	}
	if got.ResultBytes == 0 {
		t.Fatal("live ResultBytes is zero — store allocation unaccounted")
	}
	if got.ResultBytes > want.ResultBytes {
		t.Fatalf("pre-scan ResultBytes %d exceeds full-response estimate %d",
			got.ResultBytes, want.ResultBytes)
	}
}

// TestAdaptiveExtraScansSaveProbes reproduces the §5.4 heuristic's goal:
// bounding extra-scan start TTLs by observed route lengths must reduce
// extra-scan probes without reducing discovery below the uniform variant
// materially.
func TestAdaptiveExtraScansSaveProbes(t *testing.T) {
	const blocks = 4096
	run := func(adaptive bool) *Result {
		e := newEnv(t, blocks, 17)
		e.cfg.SplitTTL = 32
		e.cfg.ExtraScans = 3
		e.cfg.AdaptiveExtraScans = adaptive
		return e.run(t)
	}
	uniform := run(false)
	adaptive := run(true)
	if adaptive.ProbesSent >= uniform.ProbesSent {
		t.Fatalf("adaptive starts should save probes: adaptive=%d uniform=%d",
			adaptive.ProbesSent, uniform.ProbesSent)
	}
	iu, ia := uniform.Store.Interfaces().Len(), adaptive.Store.Interfaces().Len()
	if float64(ia) < 0.97*float64(iu) {
		t.Fatalf("adaptive starts lost too much discovery: %d vs %d", ia, iu)
	}
	t.Logf("uniform: %d probes/%d ifaces; adaptive: %d probes/%d ifaces (%.1f%% probes saved)",
		uniform.ProbesSent, iu, adaptive.ProbesSent, ia,
		100*(1-float64(adaptive.ProbesSent)/float64(uniform.ProbesSent)))
}

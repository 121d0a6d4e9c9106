package flashroute

import (
	"context"
	"maps"
	"testing"
	"time"
)

// ifaceSet collects the discovered interface set — the public-API
// fingerprint used by the handle tests.
func ifaceSet[A comparable](r *ResultOf[A]) map[A]bool {
	out := make(map[A]bool)
	r.ForEachInterface(func(a A) { out[a] = true })
	return out
}

// checkHandleLifecycle: a StartScan handle must report monotone
// progress, complete, and produce exactly what a synchronous Scan of the
// same seed (direct) produces.
func checkHandleLifecycle[A comparable](t *testing.T, direct *ResultOf[A], h *ScanHandleOf[A], err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for {
		n := h.Probes()
		if n < last {
			t.Fatalf("progress went backwards: %d after %d", n, last)
		}
		last = n
		select {
		case <-h.Done():
		default:
			continue
		}
		break
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted() {
		t.Fatal("uncancelled scan marked Interrupted")
	}
	if h.Probes() != res.Probes() {
		t.Fatalf("handle counted %d probes, result has %d", h.Probes(), res.Probes())
	}
	if !maps.Equal(ifaceSet(res), ifaceSet(direct)) || res.ReachedCount() != direct.ReachedCount() {
		t.Fatalf("handle scan: %d interfaces / %d reached, direct: %d / %d",
			res.InterfaceCount(), res.ReachedCount(),
			direct.InterfaceCount(), direct.ReachedCount())
	}
}

func TestScanHandleLifecycle(t *testing.T) {
	mk := func() *Simulation { return NewSimulation(SimConfig{Blocks: 512, Seed: 7}) }
	direct, err := mk().Scan(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := mk().StartScan(context.Background(), DefaultConfig())
	checkHandleLifecycle(t, direct, h, err)
}

func TestScanHandle6Lifecycle(t *testing.T) {
	mk := func() *Simulation6 {
		return NewSimulation6(Sim6Config{Prefixes: 64, TargetsPerPrefix: 16, Seed: 5})
	}
	direct, err := mk().Scan(Config6{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := mk().StartScan(context.Background(), Config6{})
	checkHandleLifecycle(t, direct, h, err)
}

// checkHandleCancel: cancelling a handle mid-scan yields a valid partial
// result with Interrupted set.
func checkHandleCancel[A comparable](t *testing.T, h *ScanHandleOf[A], err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for h.Probes() < 500 {
		time.Sleep(time.Millisecond)
	}
	h.Cancel()
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("Wait after Cancel returned nil result")
	}
	if !res.Interrupted() {
		t.Fatal("cancelled scan not marked Interrupted")
	}
	if res.Probes() == 0 {
		t.Fatal("partial result has no probes")
	}
}

// The cancel tests run at a rate slow enough that cancellation lands
// mid-scan.
func TestScanHandleCancel(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 2048, Seed: 3, RealTime: true})
	cfg := DefaultConfig()
	cfg.PPS = 2_000
	cfg.CancelGrace = 50 * time.Millisecond
	h, err := sim.StartScan(context.Background(), cfg)
	checkHandleCancel(t, h, err)
}

func TestScanHandle6Cancel(t *testing.T) {
	sim := NewSimulation6(Sim6Config{Prefixes: 512, TargetsPerPrefix: 16, Seed: 3, RealTime: true})
	h, err := sim.StartScan(context.Background(), Config6{PPS: 2_000, CancelGrace: 50 * time.Millisecond})
	checkHandleCancel(t, h, err)
}

// TestScanHandleSetRate: retargeting the rate through a handle mid-scan
// must not change what a lockstep-environment scan discovers.
func TestScanHandleSetRate(t *testing.T) {
	const blocks, seed = 512, 7
	mk := func() *Simulation {
		return NewSimulation(SimConfig{Blocks: blocks, Seed: seed, Lockstep: true})
	}
	cfg := DefaultConfig()
	cfg.NoRedundancyElimination = true
	direct, err := mk().Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}

	h, err := mk().StartScan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h.Probes() < direct.Probes()/4 {
		select {
		case <-h.Done():
		default:
			continue
		}
		break
	}
	h.SetRate(cfg.PPS / 100)
	h.SetRate(100_000)
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(ifaceSet(res), ifaceSet(direct)) {
		t.Fatalf("rate retarget changed discovery: %d interfaces, want %d",
			res.InterfaceCount(), direct.InterfaceCount())
	}
}

// TestNewSimulationCIDRs: user-supplied ranges must surface parse errors
// as errors (NewSimulation keeps its documented panic).
func TestNewSimulationCIDRs(t *testing.T) {
	sim, err := NewSimulationCIDRs(SimConfig{CIDRs: []string{"10.0.0.0/16", "10.1.0.0/16"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Blocks() != 512 {
		t.Fatalf("blocks=%d want 512", sim.Blocks())
	}
	for _, bad := range []string{"10.0.0.0/8x", "bogus", "10.0.0.0/28"} {
		if _, err := NewSimulationCIDRs(SimConfig{CIDRs: []string{bad}}); err == nil {
			t.Errorf("NewSimulationCIDRs(%q) accepted, want error", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSimulation with a bad CIDR must panic")
		}
	}()
	NewSimulation(SimConfig{CIDRs: []string{"10.0.0.0/8x"}})
}

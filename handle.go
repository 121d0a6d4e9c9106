package flashroute

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/core6"
)

// ScanHandleOf is a running scan of either address family, started with
// StartScan or StartResumeScan on a Simulation (ScanHandle) or a
// Simulation6 (ScanHandle6): poll Probes for live progress, retarget the
// rate with SetRate, Cancel for a graceful partial result, and Wait (or
// select on Done) for completion.
type ScanHandleOf[A comparable] struct {
	cancel  context.CancelFunc
	done    chan struct{}
	probes  atomic.Uint64
	setRate func(pps int)
	res     *ResultOf[A] // written before done closes, read after
	err     error
}

type (
	ScanHandle  = ScanHandleOf[uint32]
	ScanHandle6 = ScanHandleOf[Addr6]
)

// Probes returns the number of probes issued so far — a monotone live
// progress counter, safe to read from any goroutine while the scan runs.
func (h *ScanHandleOf[A]) Probes() uint64 { return h.probes.Load() }

// SetRate retargets the scan's aggregate probing rate (see
// Scanner.SetRate). Safe from any goroutine while the scan runs; calls
// after completion are harmless no-ops on the finished scanner.
func (h *ScanHandleOf[A]) SetRate(pps int) { h.setRate(pps) }

// Cancel requests graceful cancellation: the scan stops sending, drains
// in-flight replies, writes a final checkpoint when checkpointing is
// armed, and completes with a valid partial result (Interrupted set).
func (h *ScanHandleOf[A]) Cancel() { h.cancel() }

// Done is closed when the scan has completed and its result is ready.
func (h *ScanHandleOf[A]) Done() <-chan struct{} { return h.done }

// Wait blocks until the scan completes and returns its result.
func (h *ScanHandleOf[A]) Wait() (*ResultOf[A], error) {
	<-h.done
	return h.res, h.err
}

// countingObserver wraps the caller's observer (nil allowed) so the
// handle counts every probe.
func (h *ScanHandleOf[A]) countingObserver(user func(A, uint8, time.Duration)) func(A, uint8, time.Duration) {
	return func(dst A, ttl uint8, at time.Duration) {
		h.probes.Add(1)
		if user != nil {
			user(dst, ttl, at)
		}
	}
}

// engine is the scanner a handle drives, of either family.
type engine[A comparable] interface {
	SetRate(pps int)
	RunContext(ctx context.Context) (*core.ResultOf[A], error)
}

func (h *ScanHandleOf[A]) start(ctx context.Context, sc engine[A]) {
	ctx, cancel := context.WithCancel(ctx)
	h.cancel = cancel
	h.done = make(chan struct{})
	h.setRate = sc.SetRate
	go func() {
		defer cancel()
		res, err := sc.RunContext(ctx)
		if err != nil {
			h.err = err
		} else {
			h.res = newResult(res)
		}
		close(h.done)
	}()
}

// StartScan begins a scan asynchronously and returns a handle to it.
// Configuration errors are returned synchronously (the handle is nil);
// once a handle is returned the scan is running and will complete. The
// handle's probe counter wraps Config.Observer, so a caller-supplied
// observer still sees every probe.
func (s *Simulation) StartScan(ctx context.Context, cfg Config) (*ScanHandle, error) {
	s.fill(&cfg)
	h := &ScanHandle{}
	cfg.Observer = h.countingObserver(cfg.Observer)
	sc, err := NewScanner(cfg, s.Conn(), s.clock)
	if err != nil {
		return nil, err
	}
	h.start(ctx, sc.inner)
	return h, nil
}

// StartResumeScan is StartScan over a checkpoint snapshot (see
// ResumeScanner for the configuration contract). Snapshot decode and
// validation errors — ErrCheckpointComplete included — are returned
// synchronously.
func (s *Simulation) StartResumeScan(ctx context.Context, cfg Config, snapshot []byte) (*ScanHandle, error) {
	s.fill(&cfg)
	h := &ScanHandle{}
	cfg.Observer = h.countingObserver(cfg.Observer)
	sc, err := ResumeScanner(cfg, s.Conn(), s.clock, snapshot)
	if err != nil {
		return nil, err
	}
	h.start(ctx, sc.inner)
	return h, nil
}

// StartScan begins an IPv6 scan asynchronously; same contract as
// Simulation.StartScan.
func (s *Simulation6) StartScan(ctx context.Context, cfg Config6) (*ScanHandle6, error) {
	h := &ScanHandle6{}
	cfg.Observer = h.countingObserver(cfg.Observer)
	ic, conn := s.toCore6(cfg)
	sc, err := core6.NewScanner(ic, conn, s.clock)
	if err != nil {
		return nil, err
	}
	h.start(ctx, sc)
	return h, nil
}

// StartResumeScan begins a resumed IPv6 scan asynchronously; same
// contract as Simulation.StartResumeScan.
func (s *Simulation6) StartResumeScan(ctx context.Context, cfg Config6, snapshot []byte) (*ScanHandle6, error) {
	h := &ScanHandle6{}
	cfg.Observer = h.countingObserver(cfg.Observer)
	ic, conn := s.toCore6(cfg)
	sc, err := core6.ResumeScanner(ic, conn, s.clock, snapshot)
	if err != nil {
		return nil, err
	}
	h.start(ctx, sc)
	return h, nil
}

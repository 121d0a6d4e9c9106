// Package scamper reimplements the Scamper baseline (Luckie, IMC 2010) as
// configured in the paper's comparison (§4.2.1): Paris-UDP tracerouting of
// every block with first-TTL 16, maximum TTL 32, gap limit 5, one probe
// per hop, at Scamper's maximum rate of 10 Kpps.
//
// Scamper nominally implements Doubletree's backward probing, but the
// paper finds (Figure 7) that its redundancy elimination is delayed: it
// starts one hop later than FlashRoute's, preserves a level of probing
// redundancy in the mid-TTL range, and only converges to full elimination
// at low TTLs. This implementation models that observed behaviour: above
// StubbornFloor, backward probing stops only after DelayedHits consecutive
// stop-set hits (and a fraction of destinations keeps probing down to the
// floor regardless); at or below the floor a single hit suffices.
package scamper

import (
	"errors"
	"io"
	"time"

	"github.com/flashroute/flashroute/internal/permute"
	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// PacketConn is the raw network access (identical shape to the other
// engines').
type PacketConn interface {
	WritePacket(pkt []byte) error
	ReadPacket(buf []byte) (int, error)
	Close() error
}

// Config parameterizes the scan.
type Config struct {
	Blocks  int
	Targets func(block int) uint32
	BlockOf func(addr uint32) (int, bool)
	Source  uint32

	// FirstTTL is Scamper's first-TTL (split point), 16 in the paper.
	FirstTTL uint8
	// MaxTTL bounds forward probing (32).
	MaxTTL uint8
	// GapLimit stops forward probing after this many consecutive silent
	// hops (Scamper's default 5 — the value the paper's Figure 6
	// re-validates).
	GapLimit uint8

	// PPS is the probing rate; Scamper caps at 10 Kpps.
	PPS int

	// DelayedHits is how many consecutive stop-set hits backward probing
	// needs above StubbornFloor before it terminates (the Figure 7
	// behaviour); StubbornFrac destinations ignore the stop set entirely
	// until StubbornFloor.
	DelayedHits   int
	StubbornFrac  float64
	StubbornFloor uint8

	CollectRoutes bool
	Observer      func(dst uint32, ttl uint8, at time.Duration)
	Seed          int64
	DrainWait     time.Duration
}

// DefaultConfig returns the paper's Scamper-16 configuration.
func DefaultConfig() Config {
	return Config{
		FirstTTL:      16,
		MaxTTL:        32,
		GapLimit:      5,
		PPS:           10_000,
		DelayedHits:   2,
		StubbornFrac:  0.22,
		StubbornFloor: 6,
		DrainWait:     2 * time.Second,
	}
}

// Result is what the scan produced.
type Result struct {
	Store      *trace.Store
	ProbesSent uint64
	ScanTime   time.Duration
	Rounds     int
}

// state is the per-destination probing state (Scamper keeps comparable
// per-trace state internally).
type state struct {
	dest           uint32
	nextBackward   uint8
	nextForward    uint8
	forwardHorizon uint8
	stopHits       uint8
	stubborn       bool
	forwardDone    bool
	done           bool
}

// Scanner runs Scamper-style scans.
type Scanner struct {
	cfg   Config
	conn  PacketConn
	clock simclock.Waiter
	start time.Time

	states  []state
	order   []uint32
	stopSet map[uint32]struct{}
	store   *trace.Store

	// updates carries receiver decisions to the sending thread; Scamper's
	// sequential design processes responses between probes of the same
	// trace, which the per-round application of these updates models.
	updates chan update

	probesSent   uint64
	rounds       int
	paceCount    int
	paceBatch    int
	paceInterval time.Duration
	pktBuf       [128]byte
}

type update struct {
	block       int
	stopBack    bool
	horizon     uint8
	forwardDone bool
}

// NewScanner validates the configuration.
func NewScanner(cfg Config, conn PacketConn, clock simclock.Waiter) (*Scanner, error) {
	if cfg.Blocks <= 0 || cfg.Targets == nil || cfg.BlockOf == nil {
		return nil, errors.New("scamper: Blocks, Targets and BlockOf are required")
	}
	if cfg.FirstTTL < 1 || cfg.FirstTTL > cfg.MaxTTL || cfg.MaxTTL > probe.MaxTTL {
		return nil, errors.New("scamper: bad TTL configuration")
	}
	if cfg.PPS > 10_000 || cfg.PPS <= 0 {
		cfg.PPS = 10_000 // Scamper's hard maximum (§4.2.1)
	}
	if cfg.DelayedHits < 1 {
		cfg.DelayedHits = 1
	}
	if cfg.DrainWait <= 0 {
		cfg.DrainWait = 2 * time.Second
	}
	s := &Scanner{
		cfg:     cfg,
		conn:    conn,
		clock:   clock,
		states:  make([]state, cfg.Blocks),
		stopSet: make(map[uint32]struct{}),
		store:   trace.NewStore(cfg.CollectRoutes),
		updates: make(chan update, 65536),
	}
	s.paceBatch = cfg.PPS / 200
	if s.paceBatch < 1 {
		s.paceBatch = 1
	}
	s.paceInterval = time.Duration(int64(time.Second) * int64(s.paceBatch) / int64(cfg.PPS))
	return s, nil
}

// Run executes the scan.
func (s *Scanner) Run() (*Result, error) {
	s.start = s.clock.Now()

	perm := permute.NewFeistel(uint64(s.cfg.Blocks), uint64(s.cfg.Seed)^0x5ca5ca5c)
	s.order = make([]uint32, 0, s.cfg.Blocks)
	h := uint64(s.cfg.Seed) * 0x9e3779b97f4a7c15
	for i := uint64(0); i < uint64(s.cfg.Blocks); i++ {
		b := uint32(perm.Map(i))
		s.order = append(s.order, b)
		st := &s.states[b]
		st.dest = s.cfg.Targets(int(b))
		st.nextBackward = s.cfg.FirstTTL
		st.nextForward = s.cfg.FirstTTL + 1
		st.forwardHorizon = min8(s.cfg.FirstTTL+s.cfg.GapLimit, s.cfg.MaxTTL)
		z := h + uint64(b)*0xd6e8feb86659fd93
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		st.stubborn = float64(z>>11)/float64(1<<53) < s.cfg.StubbornFrac
	}

	// Sender registers first; a receiver parking as the sole registered
	// actor would trip the virtual clock's deadlock detector.
	s.clock.AddActor()
	s.clock.AddActor()
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		defer s.clock.DoneActor()
		s.receive()
	}()

	remaining := s.cfg.Blocks
	for remaining > 0 {
		roundStart := s.clock.Now()
		s.applyUpdates()
		for _, b := range s.order {
			st := &s.states[b]
			if st.done {
				continue
			}
			sent := false
			if st.nextBackward > 0 {
				s.sendProbe(st.dest, st.nextBackward)
				st.nextBackward--
				sent = true
			}
			if !st.forwardDone && st.nextForward <= st.forwardHorizon {
				s.sendProbe(st.dest, st.nextForward)
				st.nextForward++
				sent = true
			}
			if !sent {
				st.done = true
				remaining--
			}
		}
		s.rounds++
		if rem := time.Second - s.clock.Now().Sub(roundStart); rem > 0 {
			s.clock.Sleep(rem)
		}
	}
	s.clock.Sleep(s.cfg.DrainWait)

	res := &Result{
		Store:      s.store,
		ProbesSent: s.probesSent,
		ScanTime:   s.clock.Now().Sub(s.start),
		Rounds:     s.rounds,
	}
	s.conn.Close()
	s.clock.DoneActor()
	<-recvDone
	return res, nil
}

// applyUpdates folds queued receiver decisions into the sending state.
func (s *Scanner) applyUpdates() {
	for {
		select {
		case u := <-s.updates:
			st := &s.states[u.block]
			if u.stopBack {
				st.nextBackward = 0
			}
			if u.forwardDone {
				st.forwardDone = true
			}
			// Horizon extensions for already-completed traces are dropped:
			// the paper configures Scamper with retries restricted so each
			// hop gets exactly one probe.
			if u.horizon > st.forwardHorizon && !st.forwardDone && !st.done {
				st.forwardHorizon = min8(u.horizon, s.cfg.MaxTTL)
			}
		default:
			return
		}
	}
}

func (s *Scanner) sendProbe(dst uint32, ttl uint8) {
	elapsed := s.clock.Now().Sub(s.start)
	n := probe.BuildFlashProbe(s.pktBuf[:], s.cfg.Source, dst, ttl, false,
		elapsed, 0, probe.TracerouteDstPort)
	_ = s.conn.WritePacket(s.pktBuf[:n])
	s.probesSent++
	if s.cfg.Observer != nil {
		s.cfg.Observer(dst, ttl, elapsed)
	}
	s.paceCount++
	if s.paceCount >= s.paceBatch {
		s.paceCount = 0
		s.clock.Sleep(s.paceInterval)
	}
}

// receive processes responses: it owns the stop set and the store, and
// forwards per-destination decisions to the sender via the updates queue.
func (s *Scanner) receive() {
	var buf [4096]byte
	for {
		n, err := s.conn.ReadPacket(buf[:])
		if err != nil {
			if err != io.EOF {
				continue
			}
			return
		}
		s.handlePacket(buf[:n])
	}
}

func (s *Scanner) handlePacket(pkt []byte) {
	resp, err := probe.ParseResponse(pkt)
	if err != nil {
		return
	}
	fi, err := probe.ParseFlashQuote(&resp.ICMP)
	if err != nil {
		return
	}
	block, ok := s.cfg.BlockOf(fi.Dst)
	if !ok {
		return
	}
	now := s.clock.Now().Sub(s.start)
	rtt := fi.RTT(now)

	switch {
	case resp.ICMP.IsTTLExceeded():
		s.store.AddHop(fi.Dst, fi.InitTTL, resp.Hop, rtt)
		_, seen := s.stopSet[resp.Hop]
		s.stopSet[resp.Hop] = struct{}{}
		if fi.InitTTL <= s.cfg.FirstTTL {
			st := &s.states[block]
			stop := false
			if seen {
				st.stopHits++
				switch {
				case fi.InitTTL <= s.cfg.StubbornFloor:
					stop = true
				case st.stubborn:
					// Keeps probing through the mid range regardless.
				case int(st.stopHits) >= s.cfg.DelayedHits:
					stop = true
				}
			} else {
				st.stopHits = 0
			}
			if fi.InitTTL == 1 {
				stop = true
			}
			if stop {
				s.enqueue(update{block: block, stopBack: true})
			}
		} else {
			s.enqueue(update{block: block, horizon: fi.InitTTL + s.cfg.GapLimit})
		}
	case resp.ICMP.IsUnreachable():
		dist := int(fi.InitTTL) - int(fi.ResidualTTL) + 1
		if dist < 1 {
			dist = 1
		}
		s.store.SetReached(fi.Dst, uint8(dist), resp.Hop, rtt)
		s.enqueue(update{block: block, forwardDone: true})
	}
}

func (s *Scanner) enqueue(u update) {
	select {
	case s.updates <- u:
	default:
		// Queue full: drop the hint; probing degrades to exhaustive for
		// this response, never to incorrectness.
	}
}

func min8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

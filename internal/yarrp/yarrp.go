// Package yarrp reimplements the Yarrp scanner (Beverly, IMC 2016; Yarrp6,
// IMC 2018) as the paper's baseline: fully stateless, randomized
// (destination, TTL) probing at high rate.
//
// Reproduced behaviours, faithful to the baseline rather than charitable:
//
//   - a keyed random permutation over the (block, TTL) space issues every
//     probe exactly once with O(1) state (the ZMap-derived design);
//   - Paris-TCP-ACK probes by default; the UDP mode reproduces the probe
//     encoding whose packet-length field outgrows the MTU on long scans
//     ("Message too long", paper §4.2.1 footnote 2);
//   - fill mode (Yarrp-16): TTLs 1..MaxTTL are probed exhaustively and
//     hops beyond MaxTTL are probed one at a time, each triggered by the
//     response from the previous one — which implies an inherent gap limit
//     of one silent hop (paper §4.2.1);
//   - neighborhood protection: probes within k hops of the vantage point
//     are suppressed once no new interface has been seen at that distance
//     for a timeout (paper §4.2.1).
package yarrp

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/permute"
	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// PacketConn is the raw network access Yarrp needs (identical to
// FlashRoute's; both run over internal/netsim or a raw socket).
type PacketConn interface {
	WritePacket(pkt []byte) error
	ReadPacket(buf []byte) (int, error)
	Close() error
}

// ProbeType selects the probe flavor.
type ProbeType int

const (
	// TCPAck is Yarrp's default Paris-TCP-ACK probe.
	TCPAck ProbeType = iota
	// UDP reproduces Yarrp's UDP mode including its elapsed-time encoding
	// flaw; long scans fail with probe.ErrMessageTooLong.
	UDP
)

// Config parameterizes a Yarrp scan.
type Config struct {
	// Blocks, Targets, BlockOf and Source define the scanned universe,
	// as in the FlashRoute engine.
	Blocks  int
	Targets func(block int) uint32
	BlockOf func(addr uint32) (int, bool)
	Source  uint32

	// ProbeType selects TCP-ACK (default) or UDP probes.
	ProbeType ProbeType

	// MinTTL..MaxTTL is the exhaustively probed range (Yarrp-32: 1..32;
	// Yarrp-16: 1..16 with FillMode).
	MinTTL uint8
	MaxTTL uint8

	// FillMode sequentially extends probing beyond MaxTTL up to FillMax,
	// one hop per received farthest-hop response (Yarrp6's fill mode).
	FillMode bool
	FillMax  uint8

	// PPS is the probing rate; <= 0 disables throttling.
	PPS int

	// NeighborhoodLimit enables k-hop neighborhood protection when > 0:
	// probes at TTL <= k are skipped once no new interface has appeared
	// at that TTL for NeighborhoodTimeout (default 30 s).
	NeighborhoodLimit   uint8
	NeighborhoodTimeout time.Duration

	// CollectRoutes keeps per-destination hop lists.
	CollectRoutes bool
	// Observer sees every probe issued. In FillMode it is invoked from
	// both the sending and the receiving goroutine and must be safe for
	// concurrent use.
	Observer func(dst uint32, ttl uint8, at time.Duration)
	// Seed keys the probing permutation.
	Seed int64
	// DrainWait is the post-send receive window (default 2 s).
	DrainWait time.Duration
}

// DefaultConfig returns the Yarrp-32 configuration of the paper's
// comparison (TCP-ACK, TTLs 1..32, 100 Kpps).
func DefaultConfig() Config {
	return Config{
		ProbeType:           TCPAck,
		MinTTL:              1,
		MaxTTL:              32,
		FillMax:             32,
		PPS:                 100_000,
		NeighborhoodTimeout: 30 * time.Second,
		DrainWait:           2 * time.Second,
	}
}

// Result is what a Yarrp scan produced.
type Result struct {
	Store      *trace.Store
	ProbesSent uint64
	// FillProbes is the subset issued by fill mode (also in ProbesSent).
	FillProbes uint64
	// SkippedByProtection counts probes suppressed by neighborhood
	// protection.
	SkippedByProtection uint64
	ScanTime            time.Duration
}

// Scanner runs Yarrp scans.
type Scanner struct {
	cfg   Config
	conn  PacketConn
	clock simclock.Waiter
	start time.Time

	store *trace.Store

	probesSent   uint64 // sender-thread counter
	fillProbes   atomic.Uint64
	skipped      uint64
	unparsed     atomic.Uint64
	lastNewIface [33]atomic.Int64 // ns since start of last new interface per TTL

	paceCount    int
	paceBatch    int
	paceInterval time.Duration

	sendErr atomic.Value // error

	pktBuf [probe.MTU]byte
}

// NewScanner validates the configuration.
func NewScanner(cfg Config, conn PacketConn, clock simclock.Waiter) (*Scanner, error) {
	if cfg.Blocks <= 0 || cfg.Targets == nil || cfg.BlockOf == nil {
		return nil, errors.New("yarrp: Blocks, Targets and BlockOf are required")
	}
	if cfg.MinTTL < 1 || cfg.MaxTTL > probe.MaxTTL || cfg.MinTTL > cfg.MaxTTL {
		return nil, fmt.Errorf("yarrp: bad TTL range %d..%d", cfg.MinTTL, cfg.MaxTTL)
	}
	if cfg.FillMode && (cfg.FillMax < cfg.MaxTTL || cfg.FillMax > probe.MaxTTL) {
		return nil, errors.New("yarrp: FillMax must be in MaxTTL..32")
	}
	if cfg.DrainWait <= 0 {
		cfg.DrainWait = 2 * time.Second
	}
	if cfg.NeighborhoodTimeout <= 0 {
		cfg.NeighborhoodTimeout = 30 * time.Second
	}
	s := &Scanner{
		cfg:   cfg,
		conn:  conn,
		clock: clock,
		store: trace.NewStore(cfg.CollectRoutes),
	}
	if cfg.PPS > 0 {
		s.paceBatch = cfg.PPS / 200
		if s.paceBatch < 1 {
			s.paceBatch = 1
		}
		s.paceInterval = time.Duration(int64(time.Second) * int64(s.paceBatch) / int64(cfg.PPS))
	}
	return s, nil
}

// Run executes the scan. Like the FlashRoute engine, it registers the
// sender (the calling goroutine) and a receiver goroutine with the clock.
func (s *Scanner) Run() (*Result, error) {
	s.start = s.clock.Now()

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

	ttlRange := uint64(s.cfg.MaxTTL-s.cfg.MinTTL) + 1
	perm := permute.NewFeistel(uint64(s.cfg.Blocks)*ttlRange, uint64(s.cfg.Seed)^0x9aeb1a2b)
	it := permute.NewIterator(perm)
	var abort error
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		block := int(v / ttlRange)
		ttl := s.cfg.MinTTL + uint8(v%ttlRange)
		if s.protected(ttl) {
			s.skipped++
			continue
		}
		if err := s.sendProbe(s.cfg.Targets(block), ttl, false); err != nil {
			// Yarrp's UDP encoding failure kills the scan (§4.2.1 fn 2).
			abort = err
			break
		}
	}
	s.clock.Sleep(s.cfg.DrainWait)

	res := &Result{
		Store:               s.store,
		ProbesSent:          s.probesSent + s.fillProbes.Load(),
		FillProbes:          s.fillProbes.Load(),
		SkippedByProtection: s.skipped,
		ScanTime:            s.clock.Now().Sub(s.start),
	}
	s.conn.Close()
	s.clock.DoneActor()
	<-recvDone
	return res, abort
}

// protected reports whether neighborhood protection suppresses a probe at
// this TTL right now.
func (s *Scanner) protected(ttl uint8) bool {
	if s.cfg.NeighborhoodLimit == 0 || ttl > s.cfg.NeighborhoodLimit {
		return false
	}
	last := s.lastNewIface[ttl].Load()
	now := int64(s.clock.Now().Sub(s.start))
	return now-last > int64(s.cfg.NeighborhoodTimeout)
}

// sendProbe builds and writes one probe from the sending thread.
func (s *Scanner) sendProbe(dst uint32, ttl uint8, fill bool) error {
	elapsed := s.clock.Now().Sub(s.start)
	var n int
	switch s.cfg.ProbeType {
	case TCPAck:
		n = probe.BuildYarrpTCPProbe(s.pktBuf[:], s.cfg.Source, dst, ttl, elapsed)
	case UDP:
		var err error
		n, err = probe.BuildYarrpUDPProbe(s.pktBuf[:], s.cfg.Source, dst, ttl, elapsed)
		if err != nil {
			return err
		}
	}
	_ = s.conn.WritePacket(s.pktBuf[:n])
	if fill {
		s.fillProbes.Add(1)
	} else {
		s.probesSent++
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer(dst, ttl, elapsed)
	}
	if !fill {
		s.pace()
	}
	return nil
}

func (s *Scanner) pace() {
	if s.paceBatch == 0 {
		return
	}
	s.paceCount++
	if s.paceCount >= s.paceBatch {
		s.paceCount = 0
		s.clock.Sleep(s.paceInterval)
	}
}

// receive decodes responses statelessly from the quoted headers. In
// fill mode, a TTL-exceeded response from the farthest probed hop triggers
// the probe for the next hop — this receive-driven chaining is exactly
// what gives Yarrp its inherent gap limit of one (§4.2.1).
func (s *Scanner) receive() {
	var buf [4096]byte
	var fillBuf [probe.MTU]byte
	for {
		n, err := s.conn.ReadPacket(buf[:])
		if err != nil {
			if err != io.EOF {
				s.unparsed.Add(1)
			}
			return
		}
		s.handlePacket(buf[:n], fillBuf[:])
	}
}

func (s *Scanner) handlePacket(pkt []byte, fillBuf []byte) {
	var outer probe.IPv4
	if err := outer.Unmarshal(pkt); err != nil {
		s.unparsed.Add(1)
		return
	}
	now := s.clock.Now().Sub(s.start)

	// TCP RST from a destination (TCP-ACK mode): the target exists and
	// answered; no TTL or quoted context is available.
	if outer.Protocol == probe.ProtoTCP {
		var tcp probe.TCP
		if err := tcp.Unmarshal(pkt[probe.IPv4HeaderLen:]); err != nil || tcp.Flags&probe.FlagRST == 0 {
			s.unparsed.Add(1)
			return
		}
		rtt := time.Duration(uint32(now.Milliseconds())-tcp.Seq) * time.Millisecond
		s.store.SetReached(outer.Src, 0, outer.Src, rtt)
		return
	}

	resp, err := probe.ParseResponse(pkt)
	if err != nil {
		s.unparsed.Add(1)
		return
	}
	yi, err := probe.ParseYarrpQuote(&resp.ICMP)
	if err != nil {
		s.unparsed.Add(1)
		return
	}
	rtt := time.Duration(uint32(now.Milliseconds())-yi.ElapsedMillis) * time.Millisecond

	switch {
	case resp.ICMP.IsTTLExceeded():
		if s.store.AddHopReportNew(yi.Dst, yi.InitTTL, resp.Hop, rtt) {
			s.lastNewIface[yi.InitTTL].Store(int64(now))
		}
		// Fill mode: extend one hop past the farthest response, if it was
		// not already the destination.
		if s.cfg.FillMode && yi.InitTTL >= s.cfg.MaxTTL && yi.InitTTL < s.cfg.FillMax {
			_ = s.sendFill(yi.Dst, yi.InitTTL+1)
		}
	case resp.ICMP.IsUnreachable():
		dist := int(yi.InitTTL) - int(yi.ResidualTTL) + 1
		if dist < 1 {
			dist = 1
		}
		s.store.SetReached(yi.Dst, uint8(dist), resp.Hop, rtt)
	default:
		s.unparsed.Add(1)
	}
}

// sendFill issues a fill-mode probe from the receiving thread.
func (s *Scanner) sendFill(dst uint32, ttl uint8) error {
	elapsed := s.clock.Now().Sub(s.start)
	var buf [probe.MTU]byte
	var n int
	switch s.cfg.ProbeType {
	case TCPAck:
		n = probe.BuildYarrpTCPProbe(buf[:], s.cfg.Source, dst, ttl, elapsed)
	case UDP:
		var err error
		n, err = probe.BuildYarrpUDPProbe(buf[:], s.cfg.Source, dst, ttl, elapsed)
		if err != nil {
			return err
		}
	}
	_ = s.conn.WritePacket(buf[:n])
	s.fillProbes.Add(1)
	if s.cfg.Observer != nil {
		s.cfg.Observer(dst, ttl, elapsed)
	}
	return nil
}

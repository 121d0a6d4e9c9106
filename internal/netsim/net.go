package netsim

import (
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/simnet"
)

// Stats counts what the network saw. All fields are updated atomically and
// may be read during a scan.
type Stats struct {
	ProbesSent     atomic.Uint64 // packets written
	RateLimited    atomic.Uint64 // ICMP responses suppressed by rate limits
	SilentHops     atomic.Uint64 // probes expiring at persistently silent routers
	NoRoute        atomic.Uint64 // probes falling off route ends
	DestSilent     atomic.Uint64 // probes reaching hosts that don't answer this type
	MalformedSends atomic.Uint64 // unparseable probe packets

	// Responses plus the impairment-layer counters, promoted from the
	// shared substrate (all impairment counters zero on a perfect
	// network).
	simnet.DeliveryStats
}

// Net binds a Topology to a clock and delivers packets with modeled RTTs,
// per-interface ICMP rate limiting, and all middlebox behaviours.
type Net struct {
	topo  *Topology
	clock simclock.Waiter
	epoch time.Time

	Stats Stats

	// Rate-limit buckets, sharded so concurrent senders do not contend on
	// one global mutex for every probe.
	buckets *simnet.Buckets[uint32]
}

// bucketShardOf spreads addresses over the shards. Responder populations
// are biased in their low octet (gateways at .1, appliances at .1), so
// fold all four octets in rather than masking the low byte.
func bucketShardOf(addr uint32) uint32 {
	return addr ^ addr>>8 ^ addr>>16 ^ addr>>24
}

// New creates a network over the topology, driven by the given clock. The
// clock's current time becomes the network epoch (time zero for route
// dynamics and rate-limit windows).
func New(topo *Topology, clock simclock.Waiter) *Net {
	return &Net{
		topo:    topo,
		clock:   clock,
		epoch:   clock.Now(),
		buckets: simnet.NewBuckets[uint32](bucketShardOf),
	}
}

// Topo returns the underlying topology.
func (n *Net) Topo() *Topology { return n.topo }

// Clock returns the clock driving this network.
func (n *Net) Clock() simclock.Waiter { return n.clock }

// Elapsed returns time since the network epoch.
func (n *Net) Elapsed() time.Duration { return n.clock.Now().Sub(n.epoch) }

// allowICMP consumes one unit of the interface's ICMP budget for the
// current one-second window and reports whether the response may be sent
// (fixed-window limit of ICMPRateLimitPPS per interface, per [19]).
func (n *Net) allowICMP(addr uint32, now time.Duration) bool {
	return n.buckets.Allow(addr, n.topo.P.ICMPRateLimitPPS, now)
}

// rtt models the round-trip time to a responder at the given depth, with
// per-(probe,instant) jitter.
func (n *Net) rtt(dst uint32, depth uint8, now time.Duration) time.Duration {
	p := &n.topo.P
	j := time.Duration(0)
	if p.JitterRTT > 0 {
		h := n.topo.hash64(uint64(dst), uint64(depth), uint64(now))
		j = time.Duration(h % uint64(p.JitterRTT))
	}
	return p.BaseRTT + time.Duration(depth)*p.PerHopRTT + j
}

// response kinds on the wire.
const (
	respICMPTimeExceeded = iota
	respICMPPortUnreach
	respTCPRST
	respEchoReply
)

// respPayload is a scheduled response, materialized into bytes at read
// time (identical bytes, no per-probe allocation while in flight). Its
// delivery time and ordering sequence live in the inbox item wrapping it.
type respPayload struct {
	kind      uint8
	hop       uint32
	quote     probe.IPv4
	transport [8]byte
}

// Conn is a raw-socket-like connection from the vantage point into the
// simulated network: the shared simnet connection (write and read paths,
// batching, impairments, fault windows, per-worker read handles) over the
// IPv4 backend below.
type Conn = simnet.Conn[respPayload]

// NewConn opens a connection sourced at the vantage point.
func (n *Net) NewConn() *Conn {
	return n.NewVantageConn(0)
}

// NewVantageConn opens a connection entering the topology at vantage v:
// v == 0 is NewConn exactly; v > 0 routes the connection's probes over a
// private ingress link whose first hop is IngressIface(v). One Net
// supports any number of concurrently probing connections (stats are
// atomic, rate-limit buckets sharded, inboxes per connection).
func (n *Net) NewVantageConn(v int) *Conn {
	return simnet.NewConn[respPayload](backend{n}, n.clock, n.epoch,
		&n.topo.P.Impair, n.topo.P.Seed, &n.Stats.DeliveryStats, v)
}

// backend is the IPv4 half of a Conn (simnet.Backend): what a probe meets
// in this network and what the response looks like on the wire.
type backend struct{ n *Net }

// Write1 takes one serialized IPv4 probe through the network at instant
// now: parse, resolve, rate-limit, and hand each response to c.Deliver.
func (b backend) Write1(c *Conn, pkt []byte, now time.Duration, stage *[]simnet.Pending[respPayload]) error {
	n := b.n
	n.Stats.ProbesSent.Add(1)

	var hdr probe.IPv4
	if err := hdr.Unmarshal(pkt); err != nil || len(pkt) < probe.IPv4HeaderLen+8 {
		n.Stats.MalformedSends.Add(1)
		if err == nil {
			err = probe.ErrTruncated
		}
		return err
	}
	if int(hdr.TotalLength) > probe.MTU {
		n.Stats.MalformedSends.Add(1)
		return probe.ErrMessageTooLong
	}
	if hdr.TTL == 0 {
		return nil // dies immediately, no response from ourselves
	}

	// Outbound impairments: a lost probe never reaches a hop (no resolve,
	// no rate-limit debit); a duplicated probe traverses the network twice.
	copies := c.ProbeCopies()
	if copies == 0 {
		return nil
	}

	var transport [8]byte
	copy(transport[:], pkt[probe.IPv4HeaderLen:probe.IPv4HeaderLen+8])
	srcPort := uint16(transport[0])<<8 | uint16(transport[1])
	dstPort := uint16(transport[2])<<8 | uint16(transport[3])

	// ICMP echo requests (the census hitlist's probe type, §5.1): answered
	// by ping-responsive entities, subject to the same ICMP rate limits.
	if hdr.Protocol == probe.ProtoICMP {
		if transport[0] != probe.ICMPTypeEchoRequest {
			n.Stats.MalformedSends.Add(1)
			return nil
		}
		if !n.topo.PingResponsive(hdr.Dst) {
			n.Stats.DestSilent.Add(uint64(copies))
			return nil
		}
		depth := n.topo.DistanceNow(hdr.Dst, now)
		if depth == 0 {
			depth = 16 // infra or unrouted responders: nominal RTT depth
		}
		resp := respPayload{
			kind:      respEchoReply,
			hop:       hdr.Dst,
			transport: transport,
		}
		at := now + n.rtt(hdr.Dst, depth, now)
		for i := 0; i < copies; i++ {
			if !n.allowICMP(hdr.Dst, now) {
				n.Stats.RateLimited.Add(1)
				continue
			}
			if err := c.Deliver(resp, at, stage); err != nil {
				return err
			}
		}
		return nil
	}
	flow := flowHash(hdr.Src, hdr.Dst, srcPort, dstPort, hdr.Protocol)
	hop := n.topo.ResolveFrom(c.Vantage(), hdr.Dst, hdr.TTL, flow, now, hdr.Protocol)

	var kind uint8
	switch hop.Kind {
	case HopNone:
		n.Stats.NoRoute.Add(uint64(copies))
		return nil
	case HopSilentRouter:
		n.Stats.SilentHops.Add(uint64(copies))
		return nil
	case HopDestSilent:
		n.Stats.DestSilent.Add(uint64(copies))
		return nil
	case HopRouter:
		kind = respICMPTimeExceeded
	case HopDestUDP:
		kind = respICMPPortUnreach
	case HopDestTCP:
		kind = respTCPRST
	}

	// The quoted header is the probe's header as the responder saw it:
	// TTL decayed to the residual, destination possibly rewritten.
	quote := hdr
	quote.TTL = hop.Residual
	quote.Dst = hop.QuotedDst

	resp := respPayload{
		kind:      kind,
		hop:       hop.Addr,
		quote:     quote,
		transport: transport,
	}
	at := now + n.rtt(hdr.Dst, hop.Depth, now)

	for i := 0; i < copies; i++ {
		// ICMP rate limiting at the responder (TCP RSTs are not ICMP and
		// are not throttled by it; each duplicate debits the budget).
		if kind != respTCPRST && !n.allowICMP(hop.Addr, now) {
			n.Stats.RateLimited.Add(1)
			continue
		}
		if err := c.Deliver(resp, at, stage); err != nil {
			return err
		}
	}
	return nil
}

// Materialize renders a pending response into wire bytes in buf.
func (b backend) Materialize(buf []byte, r respPayload) int {
	src := b.n.topo.Vantage()
	switch r.kind {
	case respEchoReply:
		total := probe.IPv4HeaderLen + probe.EchoLen
		outer := probe.IPv4{
			TotalLength: uint16(total),
			TTL:         64,
			Protocol:    probe.ProtoICMP,
			Src:         r.hop,
			Dst:         src,
		}
		outer.Marshal(buf)
		b := buf[probe.IPv4HeaderLen:]
		b[0], b[1] = probe.ICMPTypeEchoReply, 0
		b[2], b[3] = 0, 0
		copy(b[4:8], r.transport[4:8]) // echoed id/seq
		cs := probe.Checksum(b[:probe.EchoLen])
		b[2], b[3] = byte(cs>>8), byte(cs)
		return total

	case respTCPRST:
		total := probe.IPv4HeaderLen + probe.TCPHeaderLen
		outer := probe.IPv4{
			TotalLength: uint16(total),
			TTL:         64,
			Protocol:    probe.ProtoTCP,
			Src:         r.hop,
			Dst:         src,
		}
		outer.Marshal(buf)
		var pt probe.TCP
		_ = pt.Unmarshal(r.transport[:])
		rst := probe.TCP{
			SrcPort: pt.DstPort,
			DstPort: pt.SrcPort,
			Seq:     pt.Seq, // echo for scanner-side matching
			Ack:     pt.Seq + 1,
			Flags:   probe.FlagRST | probe.FlagACK,
		}
		rst.Marshal(buf[probe.IPv4HeaderLen:])
		return total

	default:
		icmpType := uint8(probe.ICMPTypeTimeExceeded)
		icmpCode := uint8(probe.ICMPCodeTTLExceeded)
		if r.kind == respICMPPortUnreach {
			icmpType = probe.ICMPTypeDestUnreachable
			icmpCode = probe.ICMPCodePortUnreachable
		}
		total := probe.IPv4HeaderLen + probe.ICMPErrorLen
		outer := probe.IPv4{
			TotalLength: uint16(total),
			TTL:         64,
			Protocol:    probe.ProtoICMP,
			Src:         r.hop,
			Dst:         src,
		}
		outer.Marshal(buf)
		q := r.quote
		probe.MarshalICMPError(buf[probe.IPv4HeaderLen:], icmpType, icmpCode, &q, r.transport[:])
		return total
	}
}

// MaxResponseLen is the largest packet ReadPacket can produce.
const MaxResponseLen = probe.IPv4HeaderLen + probe.ICMPErrorLen

// flowHash derives the load-balancer flow identifier from the 5-tuple
// (FNV-1a over the tuple bytes), as a per-flow balancer would.
func flowHash(src, dst uint32, sport, dport uint16, proto uint8) uint32 {
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	for i := 0; i < 4; i++ {
		mix(byte(src >> (8 * i)))
		mix(byte(dst >> (8 * i)))
	}
	mix(byte(sport >> 8))
	mix(byte(sport))
	mix(byte(dport >> 8))
	mix(byte(dport))
	mix(proto)
	return h
}

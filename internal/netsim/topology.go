package netsim

import (
	"math/rand"
	"time"
)

// Infrastructure interface addresses are allocated from 240.0.0.0/4
// (reserved space), which cannot collide with destination universes.
const infraBase = uint32(0xF0000000)

// Hash domain-separation tags for the different per-query random choices.
const (
	tagRouterSilent   = 0x5e111001
	tagHostExists     = 0xb10cb10c
	tagInteriorChain  = 0x1c41a1c4
	tagDynamicFlap    = 0xd1a0d1a0
	tagInteriorSilent = 0x51e11751
	tagTCPRst         = 0x7c97c97c
	tagRouterUnreach  = 0x0d310d31
	tagHostPing       = 0x811c9dc5
	tagTCPQuiet       = 0x7c041e70
)

// HopKind classifies what a probe encounters at a given TTL.
type HopKind uint8

const (
	// HopNone: nothing there — the probe fell off the end of a route
	// (unresponsive tail or nonexistent host).
	HopNone HopKind = iota
	// HopRouter: TTL expired at a responsive router interface.
	HopRouter
	// HopSilentRouter: TTL expired at a router that never answers.
	HopSilentRouter
	// HopDestUDP: the probe reached its destination, which answers with
	// ICMP port unreachable.
	HopDestUDP
	// HopDestTCP: the probe reached its destination, which answers with a
	// TCP RST (Yarrp's TCP-ACK mode).
	HopDestTCP
	// HopDestSilent: the probe reached a live destination that does not
	// answer this probe type.
	HopDestSilent
)

// Terminal reports whether the probe reached its destination.
func (k HopKind) Terminal() bool {
	return k == HopDestUDP || k == HopDestTCP || k == HopDestSilent
}

// Hop is the outcome of resolving one probe against the topology.
type Hop struct {
	Kind HopKind
	// Addr is the responding (or silent) entity's address; zero for
	// HopNone.
	Addr uint32
	// Depth is the hop distance at which the probe terminated: the TTL at
	// which it expired for router hops, or the destination's distance for
	// destination hops (used for RTT modeling).
	Depth uint8
	// Residual is the TTL remaining in the probe as the responder saw it:
	// 1 for TTL-exceeded reports, initialTTL-distance+1 for destinations.
	// This is what gets quoted back and is the basis of the one-probe
	// hop-distance measurement (paper §3.3.1).
	Residual uint8
	// QuotedDst is the destination address as the responder saw it —
	// differs from the probed destination after in-flight rewriting
	// (§5.3).
	QuotedDst uint32
}

type region struct {
	path       []uint32
	diamondPos int8 // -1 = none; else index into path replaced by branches
	branches   []uint32
}

type provider struct {
	region     int32
	path       []uint32
	diamondPos int8
	branches   []uint32
	// altIface is the extra hop inserted on the flapped variant of
	// dynamic blocks' routes.
	altIface uint32
}

type stub struct {
	firstBlock int32
	nBlocks    int32
	provider   int32
	routed     bool
	loopy      bool
	midReset   bool
	midRewrite bool
	truncHops  int8 // unrouted: provider hops present before silence
	gateway    uint32
	interiors  []uint32
}

// Block flag bits.
const (
	blockOccupied = 1 << iota
	blockDynamic
	// blockAppliance: the block is fronted by its own edge appliance at
	// host octet 1 (census-magnet device, §5.1).
	blockAppliance
	// blockBalanced: the last hop toward the block's hosts is a per-flow
	// balanced router pair at host octets 252/253 (§5.2).
	blockBalanced
)

// Well-known host octets of synthetic in-block devices.
const (
	applianceOctet = 1
	balancedOctetA = 252
	balancedOctetB = 253
)

// Topology is the synthetic Internet. All methods are safe for concurrent
// use after construction (the structure is immutable; only hashing is
// performed at query time).
type Topology struct {
	P Params
	U *Universe

	vantage uint32
	core    []uint32

	regions   []region
	providers []provider

	stubs        []stub
	blockStub    []int32 // index into stubs; always valid
	blockFlags   []uint8
	blockDensity []uint8 // live-octet density * 255 for occupied blocks

	hashSeed uint64
}

// Vantage is the scanner's source address.
func (t *Topology) Vantage() uint32 { return t.vantage }

// NewTopology generates the synthetic Internet for the given universe.
func NewTopology(u *Universe, p Params) *Topology {
	if p.Regions == 0 || p.ProvidersPerRegion == 0 {
		// Autoscale the infrastructure so it stays a minority of the
		// interface population at any universe size: roughly one provider
		// per 256 blocks.
		providers := u.NumBlocks() / 256
		if providers < 16 {
			providers = 16
		}
		if providers > 4096 {
			providers = 4096
		}
		// Few regions: regional transit routers each carry traffic for a
		// sizable share of the universe, putting their per-interface probe
		// rates near the ICMP limit at full probing speed — the
		// mid-distance overprobing population of the paper's Table 4.
		regions := providers / 64
		if regions < 4 {
			regions = 4
		}
		if regions > 24 {
			regions = 24
		}
		p.Regions = regions
		p.ProvidersPerRegion = (providers + regions - 1) / regions
	}
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Topology{
		P:        p,
		U:        u,
		vantage:  0x0A000001, // 10.0.0.1
		hashSeed: uint64(p.Seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3,
	}

	next := infraBase
	iface := func() uint32 {
		next++
		return next
	}

	t.core = make([]uint32, p.CoreHops)
	for i := range t.core {
		t.core[i] = iface()
	}

	span := func(min, max int) int {
		if max <= min {
			return min
		}
		return min + rng.Intn(max-min+1)
	}

	t.regions = make([]region, p.Regions)
	for i := range t.regions {
		r := &t.regions[i]
		r.path = make([]uint32, span(p.RegionHopsMin, p.RegionHopsMax))
		for j := range r.path {
			r.path[j] = iface()
		}
		r.diamondPos = -1
		if rng.Float64() < p.RegionDiamondProb && len(r.path) > 1 {
			r.diamondPos = int8(rng.Intn(len(r.path)))
			w := 2 + rng.Intn(p.DiamondWidthMax-1)
			r.branches = make([]uint32, w)
			r.branches[0] = r.path[r.diamondPos]
			for b := 1; b < w; b++ {
				r.branches[b] = iface()
			}
		}
	}

	t.providers = make([]provider, p.Regions*p.ProvidersPerRegion)
	for i := range t.providers {
		pr := &t.providers[i]
		pr.region = int32(i / p.ProvidersPerRegion)
		pr.path = make([]uint32, span(p.ProviderHopsMin, p.ProviderHopsMax))
		for j := range pr.path {
			pr.path[j] = iface()
		}
		pr.diamondPos = -1
		if rng.Float64() < p.DiamondProb && len(pr.path) > 1 {
			pr.diamondPos = int8(rng.Intn(len(pr.path)))
			w := 2 + rng.Intn(p.DiamondWidthMax-1)
			pr.branches = make([]uint32, w)
			pr.branches[0] = pr.path[pr.diamondPos]
			for b := 1; b < w; b++ {
				pr.branches[b] = iface()
			}
		}
		pr.altIface = iface()
	}

	// Carve the universe into contiguous stub runs.
	n := u.NumBlocks()
	t.blockStub = make([]int32, n)
	t.blockFlags = make([]uint8, n)
	t.blockDensity = make([]uint8, n)
	for b := 0; b < n; {
		size := 1 << rng.Intn(p.StubSizeLogMax+1)
		if b+size > n {
			size = n - b
		}
		s := stub{
			firstBlock: int32(b),
			nBlocks:    int32(size),
			provider:   int32(rng.Intn(len(t.providers))),
			routed:     rng.Float64() < p.RoutedFraction,
		}
		if s.routed {
			s.loopy = rng.Float64() < p.LoopStubProb
			s.midReset = rng.Float64() < p.MiddleboxTTLResetProb
			s.midRewrite = rng.Float64() < p.AddrRewriteStubProb
			// The gateway lives in the stub's first block at host octet 1.
			s.gateway = u.BlockAddr(b) | 1
			nInt := rng.Intn(p.InteriorMax + 1)
			s.interiors = make([]uint32, nInt)
			for j := 0; j < nInt; j++ {
				// Interior router j lives in block (firstBlock + 1 + j) when
				// the stub is large enough, else stacked in the first block
				// at ascending host octets.
				ib := b
				octet := uint32(2 + j)
				if 1+j < size {
					ib = b + 1 + j
					octet = 2
				}
				s.interiors[j] = u.BlockAddr(ib) | octet
			}
		} else {
			plen := len(t.providers[s.provider].path)
			s.truncHops = int8(rng.Intn(plen))
		}
		si := int32(len(t.stubs))
		t.stubs = append(t.stubs, s)
		for j := b; j < b+size; j++ {
			t.blockStub[j] = si
			var fl uint8
			if rng.Float64() < p.OccupiedBlockProb {
				fl |= blockOccupied
				d := p.OccupiedDensityMin + rng.Float64()*(p.OccupiedDensityMax-p.OccupiedDensityMin)
				t.blockDensity[j] = uint8(d * 255)
			}
			if rng.Float64() < p.DynamicBlockProb {
				fl |= blockDynamic
			}
			if s.routed && j != b && rng.Float64() < p.ApplianceProb {
				// The stub's first block is fronted by the gateway itself;
				// other blocks may have their own edge appliance.
				fl |= blockAppliance
			}
			if fl&blockOccupied != 0 && rng.Float64() < p.BalancedHopProb {
				fl |= blockBalanced
			}
			t.blockFlags[j] = fl
		}
		b += size
	}
	return t
}

// hash64 is a splitmix-style stateless hash used for all per-query
// deterministic randomness.
func (t *Topology) hash64(a, b, c uint64) uint64 {
	z := t.hashSeed + a*0x9e3779b97f4a7c15 + b*0xd6e8feb86659fd93 + c*0xa0761d6478bd642f
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Topology) chance(h uint64, p float64) bool {
	return float64(h>>11)/float64(1<<53) < p
}

// ingressBase is the address space of per-vantage ingress interfaces:
// vantage v > 0 reaches the shared core through its own first-hop link
// whose interface is IngressIface(v). The range sits above the infra
// minting base, so it can never collide with generated router
// interfaces or universe addresses.
const ingressBase uint32 = 0xFFFF0000

// IngressIface returns the first-hop interface address seen by probes
// sourced at vantage v (v > 0; vantage 0 uses the classic core path).
func IngressIface(v int) uint32 { return ingressBase | uint32(v) }

// IsIngressIface reports whether addr is a per-vantage ingress
// interface — used by the cluster merge to compare discovery sets
// modulo each worker's private first hop.
func IsIngressIface(addr uint32) bool { return addr&0xFFFF0000 == ingressBase }

// silentRouter reports whether an infrastructure interface is persistently
// unresponsive. The first core hop always answers: a vantage point whose
// own gateway were silent could not traceroute at all — and the same
// holds for every per-vantage ingress interface.
func (t *Topology) silentRouter(addr uint32) bool {
	if addr == t.core[0] || IsIngressIface(addr) {
		return false
	}
	return t.chance(t.hash64(uint64(addr), tagRouterSilent, 0), t.P.SilentRouterProb)
}

func (t *Topology) silentInterior(addr uint32) bool {
	return t.chance(t.hash64(uint64(addr), tagInteriorSilent, 0), t.P.SilentInteriorProb)
}

// HostExists reports whether the given in-universe address is a live host
// (router interfaces, appliances and balanced-pair routers always exist).
func (t *Topology) HostExists(addr uint32) bool {
	b, ok := t.U.BlockIndex(addr)
	if !ok {
		return false
	}
	s := &t.stubs[t.blockStub[b]]
	if t.isStubIface(s, addr) || t.isBlockDevice(b, addr) {
		return true
	}
	if t.blockFlags[b]&blockOccupied == 0 {
		return false
	}
	octet := addr & 0xff
	if octet == 0 || octet == 255 {
		return false
	}
	density := float64(t.blockDensity[b]) / 255
	return t.chance(t.hash64(uint64(addr), tagHostExists, 0), density)
}

// isBlockDevice reports whether addr is the block's edge appliance or one
// of its balanced-pair routers.
func (t *Topology) isBlockDevice(block int, addr uint32) bool {
	fl := t.blockFlags[block]
	octet := addr & 0xff
	if fl&blockAppliance != 0 && octet == applianceOctet {
		return true
	}
	if fl&blockBalanced != 0 && (octet == balancedOctetA || octet == balancedOctetB) {
		return true
	}
	return false
}

// isStubIface reports whether addr is s's gateway or one of its interiors.
func (t *Topology) isStubIface(s *stub, addr uint32) bool {
	if !s.routed {
		return false
	}
	if addr == s.gateway {
		return true
	}
	for _, in := range s.interiors {
		if addr == in {
			return true
		}
	}
	return false
}

// interiorChainLen returns how many of the stub's interior routers sit on
// the path to hosts of the given block. Adjacent blocks share chain
// lengths in runs of eight: internal topology changes at sub-allocation
// boundaries, not per /24, which is what makes proximity-span distance
// prediction work as well as the paper measures (§3.3.4).
func (t *Topology) interiorChainLen(s *stub, block int) int {
	if len(s.interiors) == 0 {
		return 0
	}
	return int(t.hash64(uint64(block>>3), tagInteriorChain, 0) % uint64(len(s.interiors)+1))
}

// dynamicExtra reports whether the block's route currently includes the
// flapped extra hop.
func (t *Topology) dynamicExtra(block int, now time.Duration) bool {
	if t.blockFlags[block]&blockDynamic == 0 {
		return false
	}
	epoch := uint64(now / t.P.DynamicEpoch)
	return t.hash64(uint64(block), tagDynamicFlap, epoch)&1 == 1
}

// Resolve determines what a probe encounters. dst is the probe's
// destination, ttl its initial TTL, flow the load-balancer flow hash
// (derived from the 5-tuple by the Net), now the send time (for route
// dynamics), proto the transport protocol number.
func (t *Topology) Resolve(dst uint32, ttl uint8, flow uint32, now time.Duration, proto uint8) Hop {
	return t.ResolveFrom(0, dst, ttl, flow, now, proto)
}

// ResolveFrom is Resolve for a probe entering at vantage v: vantage 0 is
// the classic path, any other vantage reaches the same core through a
// private one-hop ingress link, so its first hop resolves to
// IngressIface(v) instead of the shared first core router. Everything
// past depth 1 — and all reply semantics — is identical across
// vantages, which is what lets a cluster of workers merge their
// discoveries into one topology.
func (t *Topology) ResolveFrom(v int, dst uint32, ttl uint8, flow uint32, now time.Duration, proto uint8) Hop {
	block, ok := t.U.BlockIndex(dst)
	if !ok {
		return Hop{Kind: HopNone, QuotedDst: dst}
	}
	if v > 0 && ttl == 1 {
		return t.routerHop(IngressIface(v), ttl, dst, false, proto)
	}
	s := &t.stubs[t.blockStub[block]]
	pr := &t.providers[s.provider]
	rg := &t.regions[pr.region]

	coreLen := len(t.core)
	regLen := len(rg.path)
	provLen := len(pr.path)
	d := int(ttl)

	// Segment 1: core.
	if d <= coreLen {
		return t.routerHop(t.core[d-1], ttl, dst, false, proto)
	}
	d -= coreLen

	// Segment 2: region path (with optional diamond).
	if d <= regLen {
		addr := rg.path[d-1]
		if int8(d-1) == rg.diamondPos {
			addr = rg.branches[flow%uint32(len(rg.branches))]
		}
		return t.routerHop(addr, ttl, dst, false, proto)
	}
	d -= regLen

	// Segment 3: provider path. Unrouted stubs' routes die after
	// truncHops provider hops.
	if !s.routed && d > int(s.truncHops) {
		return Hop{Kind: HopNone, QuotedDst: dst}
	}
	if d <= provLen {
		addr := pr.path[d-1]
		if int8(d-1) == pr.diamondPos {
			addr = pr.branches[flow%uint32(len(pr.branches))]
		}
		return t.routerHop(addr, ttl, dst, false, proto)
	}
	d -= provLen

	// Optional flapped extra hop between provider and gateway.
	if t.dynamicExtra(block, now) {
		if d == 1 {
			return t.routerHop(pr.altIface, ttl, dst, false, proto)
		}
		d--
	}
	gwDepth := int(ttl) - d + 1 // absolute depth of the gateway

	// Segment 4: stub gateway. A probe expiring exactly here is a router
	// hop; a probe destined to the gateway itself terminates here.
	if dst == s.gateway {
		// Destination is the gateway: reached once d >= 1.
		return t.destHop(s.gateway, uint8(gwDepth), ttl, dst, proto)
	}
	if d == 1 {
		return t.routerHop(s.gateway, ttl, dst, false, proto)
	}
	d-- // now d is the position beyond the gateway (1 = first hop inside)

	// Beyond the gateway: middleboxes act at the stub entrance, so
	// everything from here on sees (and quotes) the possibly-rewritten
	// destination.
	quotedDst := dst
	if s.midRewrite {
		quotedDst = dst ^ 1 // rewrite the low host-octet bit
	}
	effDst := quotedDst
	base := dst &^ 0xff
	fl := t.blockFlags[block]
	ap := 0
	if fl&blockAppliance != 0 {
		ap = 1
	}

	// TTL-resetting middlebox: probes that survive past the gateway get a
	// fresh TTL and always reach the end host; the residual TTL the host
	// quotes derives from the reset value, not the probe's (§3.3.2).
	if s.midReset {
		if t.HostExists(effDst) {
			steps := t.stepsBeyondGateway(s, block, effDst)
			residual := int(t.P.MiddleboxResetValue) - steps + 1
			if residual < 1 {
				residual = 1
			}
			// Unlike destHop, the probe may arrive with ttl below the
			// host's true depth: the reset refreshed it in flight. The
			// quoted residual reflects the reset value, which is what
			// corrupts one-probe distance measurement (§3.3.2).
			return Hop{
				Kind:      t.destKind(effDst, proto),
				Addr:      effDst,
				Depth:     uint8(gwDepth + steps),
				Residual:  uint8(residual),
				QuotedDst: quotedDst,
			}
		}
		return Hop{Kind: HopNone, QuotedDst: quotedDst}
	}

	// Destination is the block's edge appliance (or one of a balanced
	// pair): reached one hop past the gateway / at the pair's depth.
	if ap == 1 && effDst == base|applianceOctet {
		return t.destHop(effDst, uint8(gwDepth+1), ttl, quotedDst, proto)
	}
	chain := t.blockChainLen(s, block)
	if fl&blockBalanced != 0 &&
		(effDst == base|balancedOctetA || effDst == base|balancedOctetB) {
		// Destination is one of the balanced pair: walk the in-block path
		// to its position (appliance, interiors, then the pair).
		if ap == 1 && d == 1 {
			return t.routerHop(base|applianceOctet, ttl, quotedDst, true, proto)
		}
		if rel := d - ap; rel <= chain {
			return t.routerHop(s.interiors[rel-1], ttl, quotedDst, true, proto)
		}
		return t.destHop(effDst, uint8(gwDepth+ap+chain+1), ttl, quotedDst, proto)
	}

	// Destination is one of the stub's interior router interfaces.
	for j, in := range s.interiors {
		if effDst != in {
			continue
		}
		// Interior j sits behind the (possible) appliance of its own
		// block, reached through interiors 0..j-1.
		return t.insideStub(s, block, d, ttl, gwDepth, flow, quotedDst, proto,
			j, in, uint8(gwDepth+ap+j+1))
	}

	exists := t.HostExists(effDst)
	if !exists && s.loopy {
		// The stub bounces packets for nonexistent addresses back to its
		// provider: hops alternate provider's last hop <-> gateway.
		var addr uint32
		if d%2 == 1 {
			addr = pr.path[provLen-1]
		} else {
			addr = s.gateway
		}
		return t.routerHop(addr, ttl, quotedDst, false, proto)
	}

	// Walk the in-block path: appliance, interiors, balanced pair, host.
	if ap == 1 && d == 1 {
		return t.routerHop(base|applianceOctet, ttl, quotedDst, true, proto)
	}
	rel := d - ap // position past the appliance
	if rel <= chain {
		return t.routerHop(s.interiors[rel-1], ttl, quotedDst, true, proto)
	}
	rel -= chain
	bl := 0
	if fl&blockBalanced != 0 {
		bl = 1
	}
	if bl == 1 && rel == 1 {
		pair := base | balancedOctetA
		if flow&1 == 1 {
			pair = base | balancedOctetB
		}
		return t.routerHop(pair, ttl, quotedDst, true, proto)
	}
	rel -= bl
	if exists && rel == 1 {
		return t.destHop(effDst, uint8(gwDepth+ap+chain+bl+1), ttl, quotedDst, proto)
	}
	if exists && rel > 1 {
		// Past the host: the probe already terminated there with a
		// larger-or-equal TTL; unreachable in practice because rel was
		// derived from ttl, but keep the invariant explicit.
		return t.destHop(effDst, uint8(gwDepth+ap+chain+bl+1), ttl, quotedDst, proto)
	}
	return Hop{Kind: HopNone, QuotedDst: quotedDst}
}

// insideStub resolves probes destined to an interior router: the path
// runs through the interior's own block appliance (if any) and the
// preceding interiors.
func (t *Topology) insideStub(s *stub, block, d int, ttl uint8, gwDepth int, flow uint32,
	quotedDst uint32, proto uint8, j int, in uint32, destDepth uint8) Hop {
	ap := 0
	if t.blockFlags[block]&blockAppliance != 0 {
		ap = 1
	}
	if ap == 1 && d == 1 {
		return t.routerHop((in&^0xff)|applianceOctet, ttl, quotedDst, true, proto)
	}
	rel := d - ap
	if rel <= j {
		return t.routerHop(s.interiors[rel-1], ttl, quotedDst, true, proto)
	}
	return t.destHop(in, destDepth, ttl, quotedDst, proto)
}

// blockChainLen is interiorChainLen gated on block occupancy: empty blocks
// have no interior routers configured toward them.
func (t *Topology) blockChainLen(s *stub, block int) int {
	if t.blockFlags[block]&blockOccupied == 0 {
		return 0
	}
	return t.interiorChainLen(s, block)
}

// inBlockExtras returns the number of appliance (0/1) and balanced-pair
// (0/1) hops on the in-block path of the given block.
func (t *Topology) inBlockExtras(block int) (ap, bl int) {
	fl := t.blockFlags[block]
	if fl&blockAppliance != 0 {
		ap = 1
	}
	if fl&blockBalanced != 0 {
		bl = 1
	}
	return
}

// stepsBeyondGateway returns the number of hops from the gateway to the
// destination.
func (t *Topology) stepsBeyondGateway(s *stub, block int, dst uint32) int {
	ap, bl := t.inBlockExtras(block)
	base := dst &^ 0xff
	if ap == 1 && dst == base|applianceOctet {
		return 1
	}
	chain := t.blockChainLen(s, block)
	if bl == 1 && (dst == base|balancedOctetA || dst == base|balancedOctetB) {
		return ap + chain + 1
	}
	for j, in := range s.interiors {
		if dst == in {
			return ap + j + 1
		}
	}
	return ap + chain + bl + 1
}

// routerHop builds the Hop for a TTL expiry at a router interface,
// accounting for persistent silence and for routers that answer UDP but
// not TCP probes ([16]).
func (t *Topology) routerHop(addr uint32, ttl uint8, quotedDst uint32, interior bool, proto uint8) Hop {
	var silent bool
	if interior {
		silent = t.silentInterior(addr)
	} else {
		silent = t.silentRouter(addr)
	}
	if !silent && proto == 6 {
		silent = t.chance(t.hash64(uint64(addr), tagTCPQuiet, 0), t.P.TCPQuietRouterProb)
	}
	kind := HopRouter
	if silent {
		kind = HopSilentRouter
	}
	return Hop{Kind: kind, Addr: addr, Depth: ttl, Residual: 1, QuotedDst: quotedDst}
}

// destHop builds the Hop for a probe reaching its destination at absolute
// depth. The probe survives past depth with any larger TTL; the quoted
// residual is ttl-depth+1.
func (t *Topology) destHop(addr uint32, depth, ttl uint8, quotedDst uint32, proto uint8) Hop {
	if ttl < depth {
		// Callers only invoke destHop when the probe actually arrives.
		panic("netsim: destHop with ttl < depth")
	}
	kind := t.destKind(addr, proto)
	return Hop{
		Kind:      kind,
		Addr:      addr,
		Depth:     depth,
		Residual:  ttl - depth + 1,
		QuotedDst: quotedDst,
	}
}

// destKind decides how a live destination answers the given probe type.
func (t *Topology) destKind(addr uint32, proto uint8) HopKind {
	if proto == 6 { // TCP: hosts may answer unsolicited ACKs with RST
		if t.chance(t.hash64(uint64(addr), tagTCPRst, 0), t.P.HostTCPRSTProb) {
			return HopDestTCP
		}
		return HopDestSilent
	}
	// UDP to a high port: port unreachable. Stub edge devices (gateways,
	// appliances) mostly drop it (firewalls); other routers answer with
	// RouterUnreachProb; live hosts always (their existence already folds
	// in responsiveness).
	if t.isEdgeDevice(addr) {
		if !t.chance(t.hash64(uint64(addr), tagRouterUnreach, 1), t.P.EdgeUnreachProb) {
			return HopDestSilent
		}
		return HopDestUDP
	}
	if t.isRouterAddr(addr) {
		if !t.chance(t.hash64(uint64(addr), tagRouterUnreach, 0), t.P.RouterUnreachProb) {
			return HopDestSilent
		}
	}
	return HopDestUDP
}

// isEdgeDevice reports whether addr is a stub gateway or a block edge
// appliance.
func (t *Topology) isEdgeDevice(addr uint32) bool {
	b, ok := t.U.BlockIndex(addr)
	if !ok {
		return false
	}
	s := &t.stubs[t.blockStub[b]]
	if s.routed && addr == s.gateway {
		return true
	}
	return t.blockFlags[b]&blockAppliance != 0 && addr&0xff == applianceOctet
}

// isRouterAddr reports whether addr is any router interface (infra, stub
// gateway, interior or block device).
func (t *Topology) isRouterAddr(addr uint32) bool {
	if addr >= infraBase {
		return true
	}
	b, ok := t.U.BlockIndex(addr)
	if !ok {
		return false
	}
	return t.isStubIface(&t.stubs[t.blockStub[b]], addr) || t.isBlockDevice(b, addr)
}

// PingResponsive reports whether addr answers ICMP echo — the signal the
// hitlist builder uses (§5.1). Edge devices answer reliably (which is
// exactly why the census settles on them); other routers answer unless
// silent; hosts answer with HostPingProb.
func (t *Topology) PingResponsive(addr uint32) bool {
	if addr >= infraBase {
		return !t.silentRouter(addr)
	}
	b, ok := t.U.BlockIndex(addr)
	if !ok {
		return false
	}
	if t.isEdgeDevice(addr) {
		return true
	}
	s := &t.stubs[t.blockStub[b]]
	if s.routed {
		for _, in := range s.interiors {
			if addr == in {
				return !t.silentInterior(addr)
			}
		}
	}
	if t.blockFlags[b]&blockBalanced != 0 &&
		(addr&0xff == balancedOctetA || addr&0xff == balancedOctetB) {
		return !t.silentInterior(addr)
	}
	if !t.HostExists(addr) {
		return false
	}
	return t.chance(t.hash64(uint64(addr), tagHostPing, 0), t.P.HostPingProb)
}

// DistanceNow returns the current hop distance of dst from the vantage
// point (the TTL at which a probe first reaches it), or 0 if dst has no
// complete route.
func (t *Topology) DistanceNow(dst uint32, now time.Duration) uint8 {
	block, ok := t.U.BlockIndex(dst)
	if !ok {
		return 0
	}
	s := &t.stubs[t.blockStub[block]]
	if !s.routed {
		return 0
	}
	pr := &t.providers[s.provider]
	rg := &t.regions[pr.region]
	base := len(t.core) + len(rg.path) + len(pr.path)
	if t.dynamicExtra(block, now) {
		base++
	}
	gw := base + 1
	if dst == s.gateway {
		return uint8(gw)
	}
	return uint8(gw + t.stepsBeyondGateway(s, block, dst))
}

// BlockOccupied reports whether block contains any live hosts.
func (t *Topology) BlockOccupied(block int) bool {
	return t.blockFlags[block]&blockOccupied != 0
}

// RouterAt returns the responsive router interface a probe to dst with
// the given TTL would hit using the default Paris-UDP flow (FlashRoute's
// checksum source port and the traceroute destination port), or ok=false
// if that hop is silent, the destination itself, or nonexistent. This is
// the complete reference topology the paper approximates with a Scamper
// scan for its Table 4 overprobing analysis.
func (t *Topology) RouterAt(dst uint32, ttl uint8, now time.Duration) (uint32, bool) {
	flow := flowHash(t.vantage, dst, addrChecksumPort(dst), 33434, 17)
	h := t.Resolve(dst, ttl, flow, now, 17)
	if h.Kind != HopRouter {
		return 0, false
	}
	return h.Addr, true
}

// addrChecksumPort mirrors probe.AddrChecksum without importing it (the
// Internet checksum of the address, folded, with 0 mapped to 0xffff).
func addrChecksumPort(addr uint32) uint16 {
	sum := (addr >> 16) + (addr & 0xffff)
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	cs := ^uint16(sum)
	if cs == 0 {
		cs = 0xffff
	}
	return cs
}

// GatewayOfBlock returns the gateway interface address of the stub routing
// the block, or 0 for unrouted blocks.
func (t *Topology) GatewayOfBlock(block int) uint32 {
	s := &t.stubs[t.blockStub[block]]
	if !s.routed {
		return 0
	}
	return s.gateway
}

// NumStubs returns the number of stub runs in the topology.
func (t *Topology) NumStubs() int { return len(t.stubs) }

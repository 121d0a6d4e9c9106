package core

// StopSet is the pluggable Doubletree stop set (§3.2): the set of
// interfaces already discovered, consulted by backward probing to
// terminate on route convergence. The engine's default is the sharded
// in-process implementation in receive.go (NewLocalStopSet); a
// distributed deployment substitutes one that also consults entries
// published by other vantage points (internal/cluster).
//
// Concurrency contract: with Config.Receivers == 1 all calls come from
// the single receive goroutine; with Receivers > 1, Has and Add are
// called concurrently from R receive workers and implementations must
// synchronize. ForEach and Size are only called from quiesced points
// (checkpoint barrier, post-scan) but may race an Add on other shards;
// entries may only ever be added, never removed — the engine's rewind
// logic (checkpoint.go) and the suppress-only semantics of the
// distributed set both rely on monotonicity.
type StopSet[A comparable] interface {
	// Has reports membership. This is the engine's hottest read (one per
	// TTL-exceeded reply); implementations keep it allocation-free.
	Has(a A) bool
	// Add inserts a discovered interface.
	Add(a A)
	// ForEach visits every member (checkpoint encoding).
	ForEach(fn func(A))
	// Size reports the cardinality (post-scan statistics).
	Size() int
}

// NewLocalStopSet builds the engine's default in-process stop set:
// open-addressed tables sharded `shards` ways by the high bits of
// Family.HashAddr (lock-free at one shard), pre-sized for hint entries in
// total and growing on demand. This is the type the engine builds when
// Config.StopSet is nil (with a hint of one entry per eight blocks),
// exported so wrappers (the cluster's worker set) can embed it as their
// local tier.
func NewLocalStopSet[A comparable](fam Family[A], shards, hint int) StopSet[A] {
	return newStopSet(fam, shards, hint)
}

// TraceSink observes every discovery event the engine records into its
// trace store, as it happens: hop appends and destination arrivals. The
// store itself stays the engine's (results, checkpoints and striped
// merging are unchanged); a sink is a tee, not a replacement — it sees
// exactly the events that mutate the store, after the store applied
// them. Same concurrency contract as StopSet: with Receivers > 1 the
// callbacks arrive concurrently from R workers.
type TraceSink[A comparable] interface {
	// HopDiscovered reports a router interface recorded for dst at ttl.
	HopDiscovered(dst A, ttl uint8, hop A)
	// DestReached reports dst answered from distance dist.
	DestReached(dst A, dist uint8)
}

package core

import "time"

// This file implements the send side of the data path; Config.Batch sizes
// it, and a batch of one is the per-packet engine.
//
// A shard builds probes into a preallocated arena of Config.Batch slots
// and flushes it when it fills — or earlier, at every point the shard is
// about to block (the pacer sleep, the round gap, phase end,
// cancellation). Flushing before every blocking point is what makes the
// result independent of the batch size: between blocking points no
// response can influence the sender's decisions (on the virtual clock no
// time passes at all), so the set of packets on the wire at each blocking
// instant is the same for every Batch.
//
// The receive side (receive.go) mirrors it: a worker pulls up to
// Config.Batch packets per transport call into its own buffer arena and
// processes them in arrival order. Both sides reuse their arenas, so the
// steady state allocates nothing.

// maxBatch caps Config.Batch: beyond this the arenas' memory dominates
// any further syscall amortization (it is also comfortably above
// Linux's UIO_MAXIOV = 1024 sendmmsg ceiling).
const maxBatch = 4096

// recvBufSize is the per-packet stride of the receive arenas.
const recvBufSize = 4096

// makeRecvArena builds one receive arena: n packet buffers carved from a
// single backing allocation, plus the length slice ReadBatch fills.
func makeRecvArena(n int) ([][]byte, []int) {
	backing := make([]byte, n*recvBufSize)
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = backing[i*recvBufSize : (i+1)*recvBufSize]
	}
	return bufs, make([]int, n)
}

// sendProbe builds and stamps one probe into the next arena slot, flushes
// if the arena filled, and runs the observer and pacing steps. The
// pacer's flush hook writes the arena out before any pacing sleep, so
// batch boundaries never distort pacing and no probe waits out a sleep in
// the arena.
func (sh *senderShardOf[A]) sendProbe(dst A, ttl uint8, preprobe bool, srcPortOffset uint16) {
	s := sh.s
	sh.pollRate()
	elapsed := s.clock.Now().Sub(s.start)
	slot := sh.arena[sh.nbuf*maxProbeBuf : (sh.nbuf+1)*maxProbeBuf]
	n := s.fam.BuildProbe(slot, s.cfg.Source, dst, ttl, preprobe, elapsed, srcPortOffset)
	sh.pkts[sh.nbuf] = slot[:n]
	sh.metas[sh.nbuf] = probeMeta[A]{dst: dst, ttl: ttl, preprobe: preprobe, off: srcPortOffset}
	sh.nbuf++
	if sh.nbuf == len(sh.pkts) {
		sh.flush()
	}
	if s.cfg.Observer != nil {
		s.obsMu.Lock()
		s.cfg.Observer(dst, ttl, elapsed)
		s.obsMu.Unlock()
	}
	sh.pacer.pace(sh.flushFn)
}

// flush writes every buffered probe out under WriteBatch's partial-write
// contract: a short return with an error singles out one failed packet,
// which gets the transient-retry treatment (retrySlot) while the rest of
// the arena is re-submitted — a mid-batch failure costs that one probe at
// most, never the packets behind it. Accounting (probesSent, checkpoint
// triggers) happens here, so a probe counts as sent only once it has
// actually been written; a probe that cannot be written is dropped and
// counted — one lost datapoint, not a failed scan. No-op when nothing is
// buffered, so it is safe at every blocking point.
func (sh *senderShardOf[A]) flush() {
	if sh.nbuf == 0 {
		return
	}
	s := sh.s
	sent := uint64(0)
	i := 0
	for i < sh.nbuf {
		w, err := sh.write(sh.pkts[i:sh.nbuf])
		if w < 0 {
			w = 0
		}
		i += w
		sent += uint64(w)
		if err == nil {
			continue // short write with no error: submit the rest
		}
		if i >= sh.nbuf {
			// Connection-level failure after every packet was consumed
			// (e.g. the transport closed while committing).
			s.noteSendError(err)
			break
		}
		// err refers to pkts[i]: retry that one probe, then resume the
		// batch behind it.
		if sh.retrySlot(i, err) {
			sent++
		}
		i++
		if i < sh.nbuf {
			// The retry may have slept; re-stamp the remaining probes so
			// their embedded send time is their actual send time.
			sh.restampSlots(i)
		}
	}
	sh.nbuf = 0
	sh.probesSent += sent
	if sent > 0 {
		s.liveProbes.Add(sent)
	}
	if s.ckpt != nil && sent > 0 {
		s.maybeCheckpoint(sent)
	}
}

// write submits pkts in order and reports how many were consumed, with
// BatchWriter's error contract: one WriteBatch call when the transport has
// the capability and there is more than one packet to amortize it over,
// else one WritePacket per packet.
func (sh *senderShardOf[A]) write(pkts [][]byte) (int, error) {
	if sh.bw != nil && len(pkts) > 1 {
		return sh.bw.WriteBatch(pkts)
	}
	for i, pkt := range pkts {
		if err := sh.s.conn.WritePacket(pkt); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// retrySlot retries one failed arena slot: capped exponential backoff and
// a single-packet rewrite per attempt, up to Config.SendRetries for
// transient errors. Reports whether the probe was eventually written; a
// dropped probe is counted as a send error.
func (sh *senderShardOf[A]) retrySlot(i int, err error) bool {
	s := sh.s
	for retry := 0; retry < s.cfg.SendRetries && isTemporary(err); retry++ {
		s.sendRetries.Add(1)
		backoff := time.Millisecond << retry
		if backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
		s.clock.Sleep(backoff)
		if err = s.conn.WritePacket(sh.restampSlot(i)); err == nil {
			return true
		}
	}
	s.noteSendError(err)
	return false
}

// restampSlot rebuilds arena slot i from its meta with a fresh
// timestamp: the probe's send time rides in the packet (§3.1), so a
// probe written after a sleep must carry its actual send time or the
// derived RTT would include the wait.
func (sh *senderShardOf[A]) restampSlot(i int) []byte {
	s := sh.s
	m := &sh.metas[i]
	slot := sh.arena[i*maxProbeBuf : (i+1)*maxProbeBuf]
	elapsed := s.clock.Now().Sub(s.start)
	n := s.fam.BuildProbe(slot, s.cfg.Source, m.dst, m.ttl, m.preprobe, elapsed, m.off)
	sh.pkts[i] = slot[:n]
	return sh.pkts[i]
}

// restampSlots re-stamps slots from..nbuf-1 (after a retry backoff).
func (sh *senderShardOf[A]) restampSlots(from int) {
	for i := from; i < sh.nbuf; i++ {
		sh.restampSlot(i)
	}
}

package lsq

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/predictor"
)

// LoadResult is the outcome of a load issue attempt.
type LoadResult struct {
	Deferred bool
	Reason   DeferReason
	Value    int64
	Tag      core.Tag
	Latency  int
	PC       predictor.PC // static identity, for value-predictor training
}

// LoadTry records a load execution (the address arriving at the LSQ) and
// attempts to issue it under the configured policy.  Re-executions of the
// same load (a new address under DSRE) re-enter here and produce a fresh
// reply.  now is the current cycle, used for MSHR accounting.
func (q *Queue) LoadTry(now int64, k Key, addr uint64, tag core.Tag) LoadResult {
	s, op := q.opSlot(k)
	if s < 0 || q.stores[s].Test(op) {
		return LoadResult{Deferred: true, Reason: DeferNone} // stale message for a squashed block
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	q.exec[s].Set(op)
	q.addr[f] = addr
	q.loadSig[s] |= sigOf(addr, int(q.size[f]))
	if first {
		q.Stats.Loads++
	}
	// Tag of the reply: never older than anything already sent for this
	// load, so consumers accept the newest execution.
	q.tag[f] = core.MaxTag(q.tag[f], tag)
	return q.tryIssue(now, k, s, op)
}

// tryIssue applies the policy and, if permitted, produces the load's value.
func (q *Queue) tryIssue(now int64, k Key, s, op int) LoadResult {
	f := s*opStride + op
	if reason := q.mustDefer(k, s, op); reason != DeferNone {
		q.park(k, s, op, reason)
		if reason == DeferPolicy {
			q.Stats.DeferredPolicy++
		} else {
			q.Stats.DeferredMSHR++
		}
		return LoadResult{Deferred: true, Reason: reason}
	}
	size := int(q.size[f])
	v, fwd := q.reconstruct(k, q.addr[f], size)
	lat := q.cfg.ForwardLatency
	if fwd == size {
		q.Stats.Forwards++
	} else {
		clat, ok := q.hier.DataAccess(now, q.addr[f], false)
		if !ok {
			// All MSHRs busy: park and retry as time passes.
			q.park(k, s, op, DeferMSHR)
			q.mshrWait = true
			q.Stats.DeferredMSHR++
			return LoadResult{Deferred: true, Reason: DeferMSHR}
		}
		if clat > lat {
			lat = clat
		}
		if fwd > 0 {
			q.Stats.PartialForwards++
		}
	}
	q.issued[s].Set(op)
	q.parked[s].Clear(op)
	q.data[f] = v
	// Issuing is one of the conditions certification waits on.
	q.certDirty = true
	return LoadResult{Value: v, Tag: q.tag[f], Latency: lat, PC: q.pc[f]}
}

// park adds a list entry for a load that was not parked.  A policy-deferred
// load whose only entry this is goes straight to sleep; any other entry
// joins the active list, which is in park order because stamps only grow.
func (q *Queue) park(k Key, s, op int, reason DeferReason) {
	if q.parked[s].Test(op) {
		return // already holds an entry
	}
	q.parked[s].Set(op)
	f := s*opStride + op
	q.nent[f]++
	stamp := q.parkSeq
	q.parkSeq++
	if reason == DeferPolicy && q.nent[f] == 1 {
		q.sleep(s, op, stamp)
		return
	}
	q.active = append(q.active, parkEntry{stamp: stamp, k: k})
}

// sleep takes a policy-deferred load with a single list entry out of the
// scans until the condition that deferred it can have changed.  Guarded
// loads and the conservative policy wait for every older store to execute;
// store-set and oracle loads wait for their store's first execution (the
// load is on that store's waiter list since registration).
func (q *Queue) sleep(s, op int, stamp uint32) {
	q.pstamp[s*opStride+op] = stamp
	if q.guarded[s].Test(op) || q.cfg.Policy == core.IssueConservative {
		q.sleepOld[s].Set(op)
	} else {
		q.sleepWait[s].Set(op)
	}
	q.nsleep++
}

// wake hands the sleepers in mask m of block slot s to the next scan.
func (q *Queue) wake(s int, m bitset.Mask32) {
	for !m.Empty() {
		i := m.Min()
		m.Clear(i)
		q.woken = append(q.woken, parkEntry{stamp: q.pstamp[s*opStride+i], k: Key{Seq: q.seqs[s], LSID: int8(i)}})
		q.nsleep--
	}
}

// GuardLoad marks a flushed violating load: its replayed instance (same
// dynamic key) issues conservatively, guaranteeing forward progress.  The
// load must be resident (the simulator guards the loads a store update
// just reported, then squashes them).
func (q *Queue) GuardLoad(k Key) {
	if s, op := q.opSlot(k); s >= 0 {
		q.guarded[s].Set(op)
	}
	q.Stats.GuardedLoads++
}

// mustDefer evaluates the issue policy for a load whose address is known.
// Every deferral it reports is monotone: it can only clear when a store
// first executes, which is what lets a parked load sleep.
func (q *Queue) mustDefer(k Key, s, op int) DeferReason {
	if q.guarded[s].Test(op) && q.anyOlderStoreUnexecuted(k) {
		return DeferPolicy
	}
	switch q.cfg.Policy {
	case core.IssueAggressive:
		return DeferNone
	case core.IssueConservative:
		if q.anyOlderStoreUnexecuted(k) {
			return DeferPolicy
		}
		return DeferNone
	case core.IssueStoreSet, core.IssueOracle:
		if q.waitValid[s].Test(op) && q.waitStore(k, s*opStride+op) >= 0 {
			return DeferPolicy
		}
	}
	return DeferNone
}

// anyOlderStoreUnexecuted reports whether some store older than k in the
// window has not yet executed: a comparison against the unexecuted-store
// frontier.
func (q *Queue) anyOlderStoreUnexecuted(k Key) bool {
	switch {
	case q.unexecSeq < k.Seq:
		return true
	case q.unexecSeq > k.Seq:
		return false
	}
	s := q.slot(k.Seq)
	return !(q.stores[s] &^ q.exec[s]).Below(int(k.LSID)).Empty()
}

// advanceUnexec moves the unexecuted-store frontier past blocks whose
// stores have all executed, waking the loads sleeping on it that it passes.
// Called when a store in the frontier block executes and when the frontier
// block is registered.
func (q *Queue) advanceUnexec() {
	for {
		s := q.slot(q.unexecSeq)
		if s < 0 {
			return // every store has executed
		}
		pend := q.stores[s] &^ q.exec[s]
		if !pend.Empty() {
			if m := q.sleepOld[s].Below(pend.Min()); !m.Empty() {
				q.sleepOld[s] &^= m
				q.wake(s, m)
			}
			return
		}
		if m := q.sleepOld[s]; !m.Empty() {
			q.sleepOld[s] = 0
			q.wake(s, m)
		}
		q.unexecSeq++
	}
}

// storeExecuted wakes what a store's first execution (or nullification)
// releases: the loads on its waiter list that sleep on it, and — when it
// was in the frontier block — the loads the frontier passes.
func (q *Queue) storeExecuted(k Key, s, op int) {
	f := s*opStride + op
	for w := q.link[f]; w >= 0; w = q.link[w] {
		ws, wop := int(w)/opStride, int(w)%opStride
		if q.sleepWait[ws].Test(wop) {
			q.sleepWait[ws].Clear(wop)
			q.wake(ws, bitset.Mask32(1)<<wop)
		}
	}
	q.link[f] = -1
	if k.Seq == q.unexecSeq {
		q.advanceUnexec()
	}
}

// HasReadyWork reports whether the next TakeReady call will re-evaluate
// parked loads (as opposed to returning immediately).  The event-driven
// run loop uses it to classify a cycle as active: a re-evaluation scan can
// issue loads or count deferral retries even when it returns nothing.
func (q *Queue) HasReadyWork() bool {
	return (q.dirty || q.mshrWait) && len(q.active)+len(q.woken)+q.nsleep > 0
}

// TakeReady re-evaluates parked loads and returns those that can now issue,
// appending into buf (pass buf[:0] to reuse a scratch buffer; the result
// must be consumed before the next call).  Call once per cycle; it is cheap
// when nothing changed.  Loads parked on a full MSHR file are retried every
// cycle regardless of queue events.
//
// Only the active and woken entries are re-evaluated, in park order (so
// MSHR allocation order is the list's).  Each sleeper would have deferred
// again and counted one policy deferral; that count is added in bulk.
func (q *Queue) TakeReady(now int64, buf []ReadyLoad) []ReadyLoad {
	if !q.HasReadyWork() {
		q.dirty = false
		return buf
	}
	q.dirty = false
	q.mshrWait = false
	q.Stats.DeferredPolicy += int64(q.nsleep)
	entries := q.active
	if len(q.woken) > 0 {
		entries = q.mergeWoken()
	}
	out := buf
	kept := q.active[:0]
	for _, e := range entries {
		s, op := q.opSlot(e.k)
		if s < 0 {
			continue // squashed or drained
		}
		f := s*opStride + op
		if !q.parked[s].Test(op) {
			q.nent[f]-- // issued since it parked
			continue
		}
		r := q.tryIssue(now, e.k, s, op)
		if r.Deferred {
			if r.Reason == DeferPolicy && q.nent[f] == 1 {
				q.sleep(s, op, e.stamp)
			} else {
				kept = append(kept, e)
			}
			continue
		}
		q.nent[f]--
		out = append(out, ReadyLoad{Load: e.k, Addr: q.addr[f], Res: r})
	}
	q.active = kept
	return out
}

// mergeWoken merges the woken entries into the active list by park stamp,
// into the merged scratch buffer.
func (q *Queue) mergeWoken() []parkEntry {
	slices.SortFunc(q.woken, func(a, b parkEntry) int {
		if before(a.stamp, b.stamp) {
			return -1
		}
		return 1
	})
	m := q.merged[:0]
	a, w := q.active, q.woken
	for len(a) > 0 && len(w) > 0 {
		if before(a[0].stamp, w[0].stamp) {
			m, a = append(m, a[0]), a[1:]
		} else {
			m, w = append(m, w[0]), w[1:]
		}
	}
	m = append(append(m, a...), w...)
	q.woken = q.woken[:0]
	q.merged = m
	return m
}

// LoadInputsCommitted marks that the load's address operands are final (the
// commit wave reached its inputs); the load becomes a certification
// candidate.
func (q *Queue) LoadInputsCommitted(k Key) {
	s, op := q.opSlot(k)
	if s < 0 || q.stores[s].Test(op) || q.inputsCom[s].Test(op) {
		return
	}
	q.inputsCom[s].Set(op)
	q.cstamp[s*opStride+op] = q.candSeq
	q.candSeq++
	q.dirty = true
	q.certDirty = true
}

// CertifiedLoad is a load whose value is final.
type CertifiedLoad struct {
	Load  Key
	Addr  uint64
	Value int64
}

// TakeCertifiable returns loads that are newly certifiable: issued, address
// final, and every older store committed — appending into buf (pass buf[:0]
// to reuse a scratch buffer) in the order they became candidates.  The
// returned value is asserted equal to the load's current value — every
// store update re-checked younger loads, so a mismatch here would be a
// protocol bug.
//
// The scan first finds the unresolved-store frontier: the oldest
// uncommitted store whose address is not final.  A load younger than it
// cannot certify, so only the candidates (inputs committed, issued, not yet
// certified) older than the frontier are checked.
func (q *Queue) TakeCertifiable(buf []CertifiedLoad) []CertifiedLoad {
	if !q.certDirty {
		// Nothing relevant changed since the last scan: skipping is
		// behaviour-identical (a yield-less scan moves no statistics).
		return buf
	}
	q.certDirty = false
	out := buf
	base := q.seqs[q.head]
	for l := 0; l < q.n; l++ {
		s := (q.head + l) & q.ringMask()
		cand := q.inputsCom[s] & q.issued[s] &^ q.certified[s]
		unresolved := q.stores[s] &^ q.committed[s] &^ q.safeAddr(s)
		if !unresolved.Empty() {
			cand = cand.Below(unresolved.Min())
		}
		fb := s * opStride
		for m := cand; !m.Empty(); {
			i := m.Min()
			m.Clear(i)
			k := Key{Seq: base + int64(l), LSID: int8(i)}
			laddr, lsize := q.addr[fb+i], int(q.size[fb+i])
			if !q.olderStoresSafe(k, laddr, lsize) {
				continue
			}
			v, _ := q.reconstruct(k, laddr, lsize)
			if v != q.data[fb+i] {
				panic("lsq: certification value mismatch for " + k.String() + " (missed violation)")
			}
			q.certified[s].Set(i)
			out = append(out, CertifiedLoad{Load: k, Addr: laddr, Value: v})
		}
		if !unresolved.Empty() {
			break
		}
	}
	// Report in candidate-arrival order (insertion sort: yields are tiny).
	for i := len(buf) + 1; i < len(out); i++ {
		for j := i; j > len(buf) && before(q.candStamp(out[j].Load), q.candStamp(out[j-1].Load)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// candStamp is a resident candidate's arrival stamp.
func (q *Queue) candStamp(k Key) uint32 {
	s, op := q.opSlot(k)
	return q.cstamp[s*opStride+op]
}

// safeAddr is the block's stores whose address is final and live: executed
// with a committed address operand, and not nullified.
func (q *Queue) safeAddr(s int) bitset.Mask32 {
	return q.addrCom[s] & q.exec[s] &^ q.null[s]
}

// olderStoresSafe reports whether no older store can still change the
// load's value: every older store is either fully committed, or has a
// committed (final) address that provably does not overlap the load.  The
// second case is what keeps the commit wave's memory leg from serialising
// on false dependences: only true aliases wait for store data.
//
// The scan is mask-first: per block, the uncommitted-store candidates are
// one AND-NOT, the "address provably final and live" filter is one more
// word expression, the store-address signature rules out the block with
// one AND, and only candidates surviving all three reach the per-bit
// address-overlap check.
func (q *Queue) olderStoresSafe(k Key, laddr uint64, lsize int) bool {
	lsig := sigOf(laddr, lsize)
	base := q.seqs[q.head]
	for l := int64(0); ; l++ {
		bseq := base + l
		if bseq > k.Seq || l >= int64(q.n) {
			return true
		}
		s := (q.head + int(l)) & q.ringMask()
		cand := q.stores[s] &^ q.committed[s]
		if bseq == k.Seq {
			cand = cand.Below(int(k.LSID))
		}
		if cand.Empty() {
			continue
		}
		if !(cand &^ q.safeAddr(s)).Empty() {
			return false
		}
		if q.storeSig[s]&lsig == 0 {
			continue
		}
		fb := s * opStride
		for m := cand; !m.Empty(); {
			i := m.Min()
			m.Clear(i)
			if overlap(q.addr[fb+i], int(q.size[fb+i]), laddr, lsize) {
				return false
			}
		}
	}
}

// Occupancy returns the number of resident entries (for stats).
func (q *Queue) Occupancy() int { return q.occupancy() }

// MarkDirty forces deferred-load re-evaluation on the next TakeReady (used
// by the simulator after events the queue cannot see, e.g. MSHR drain).
func (q *Queue) MarkDirty() { q.dirty = true }

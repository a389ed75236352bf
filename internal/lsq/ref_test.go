package lsq

// The reference queue: the load/store queue as it was before the frontier,
// wake-list and signature optimisations — every certification scan walks
// the whole candidate list and each candidate's older stores, every
// TakeReady scan re-evaluates every parked load, every store update
// re-checks every younger block, and flushed loads are guarded through a
// map.  TestQueueMatchesReference drives it and Queue with identical
// randomized operation streams and requires identical outputs and Stats.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/predictor"
)

// refQueue is the reference load/store queue.
type refQueue struct {
	cfg    Config
	mem    *mem.Memory
	hier   *cache.Hierarchy
	tags   *core.TagSource
	ss     *predictor.StoreSet
	oracle *predictor.Oracle

	// Block window: a power-of-two ring of block slots in ascending-
	// sequence order.  head is the physical slot of the oldest block, n
	// the live count; the block with sequence s lives at physical slot
	// (head + (s − seqs[head])) & (cap−1).  Drain advances head (O(1));
	// squash truncates n.
	head int
	n    int

	// Per-block state, indexed by physical slot.
	seqs []int64
	nops []uint8

	// Per-block LSID occupancy masks — the bitmaps certification and alias
	// search walk.  stores is fixed at registration; the rest track the
	// old per-entry booleans bit for bit.
	stores    []bitset.Mask32 // declared store ops
	exec      []bitset.Mask32 // executed at least once
	null      []bitset.Mask32 // predicated off (stores)
	committed []bitset.Mask32 // store output final
	addrCom   []bitset.Mask32 // store address operand committed
	dataCom   []bitset.Mask32 // store data operand committed
	issued    []bitset.Mask32 // load produced a value
	certified []bitset.Mask32 // load certified (value final)
	inputsCom []bitset.Mask32 // load address operands committed
	parked    []bitset.Mask32 // load on the deferred list
	waitValid []bitset.Mask32 // waitFor captured at registration

	// Flat per-op fields, stride opStride, indexed slot*opStride + LSID.
	addr    []uint64
	data    []int64 // store data, or the load's last returned value
	tag     []core.Tag
	size    []uint8
	pc      []predictor.PC
	waitFor []predictor.DynRef

	resident int // ops across blocks (occupancy is read every cycle)

	deferred []Key // parked loads, re-evaluated when dirty
	dirty    bool
	mshrWait bool // some load parked on MSHR pressure; retry every cycle

	// certDirty gates TakeCertifiable's scan: a parked certification
	// candidate can only become certifiable when a store commits, executes,
	// nullifies or leaves the window, a load issues, or a new candidate
	// arrives — every such mutation sets it.  A scan that yields nothing has
	// no side effects, so skipping it while the flag is clear is
	// behaviour-identical and avoids a rescan per cycle.
	certDirty bool

	// guard holds dynamic loads that violated and were flushed: their
	// refetched instances (same key) replay conservatively, which is what
	// keeps flush recovery livelock-free when a load conflicts with a
	// store in its own block.
	guard map[Key]bool

	certCand []Key // loads awaiting certification

	// ValidateDrain, when set (tests), is called for every drained store
	// with its final address and data; an error aborts the run loudly.
	ValidateDrain func(k Key, addr uint64, data int64, size int) error

	Stats Stats
}

// newRef builds a reference queue.  mem holds committed state; hier provides data-side
// timing; tags allocates violation wave tags; ss and oracle may be nil when
// the policy does not use them.
func newRef(cfg Config, m *mem.Memory, hier *cache.Hierarchy, tags *core.TagSource, ss *predictor.StoreSet, oracle *predictor.Oracle) *refQueue {
	if cfg.ForwardLatency <= 0 {
		cfg.ForwardLatency = 1
	}
	if cfg.ViolationLatency <= 0 {
		cfg.ViolationLatency = 1
	}
	q := &refQueue{
		cfg:    cfg,
		mem:    m,
		hier:   hier,
		tags:   tags,
		ss:     ss,
		oracle: oracle,
		guard:  make(map[Key]bool),
	}
	q.grow(16)
	return q
}

// grow (re)allocates the block ring with capacity c (a power of two),
// relocating live blocks so the oldest lands at slot 0.
func (q *refQueue) grow(c int) {
	old := *q
	q.seqs = make([]int64, c)
	q.nops = make([]uint8, c)
	masks := make([]bitset.Mask32, 11*c)
	q.stores, masks = masks[:c:c], masks[c:]
	q.exec, masks = masks[:c:c], masks[c:]
	q.null, masks = masks[:c:c], masks[c:]
	q.committed, masks = masks[:c:c], masks[c:]
	q.addrCom, masks = masks[:c:c], masks[c:]
	q.dataCom, masks = masks[:c:c], masks[c:]
	q.issued, masks = masks[:c:c], masks[c:]
	q.certified, masks = masks[:c:c], masks[c:]
	q.inputsCom, masks = masks[:c:c], masks[c:]
	q.parked, masks = masks[:c:c], masks[c:]
	q.waitValid = masks[:c:c]
	q.addr = make([]uint64, c*opStride)
	q.data = make([]int64, c*opStride)
	q.tag = make([]core.Tag, c*opStride)
	q.size = make([]uint8, c*opStride)
	q.pc = make([]predictor.PC, c*opStride)
	q.waitFor = make([]predictor.DynRef, c*opStride)
	for l := 0; l < old.n; l++ {
		s := (old.head + l) & (len(old.seqs) - 1)
		q.seqs[l] = old.seqs[s]
		q.nops[l] = old.nops[s]
		q.stores[l] = old.stores[s]
		q.exec[l] = old.exec[s]
		q.null[l] = old.null[s]
		q.committed[l] = old.committed[s]
		q.addrCom[l] = old.addrCom[s]
		q.dataCom[l] = old.dataCom[s]
		q.issued[l] = old.issued[s]
		q.certified[l] = old.certified[s]
		q.inputsCom[l] = old.inputsCom[s]
		q.parked[l] = old.parked[s]
		q.waitValid[l] = old.waitValid[s]
		copy(q.addr[l*opStride:(l+1)*opStride], old.addr[s*opStride:(s+1)*opStride])
		copy(q.data[l*opStride:(l+1)*opStride], old.data[s*opStride:(s+1)*opStride])
		copy(q.tag[l*opStride:(l+1)*opStride], old.tag[s*opStride:(s+1)*opStride])
		copy(q.size[l*opStride:(l+1)*opStride], old.size[s*opStride:(s+1)*opStride])
		copy(q.pc[l*opStride:(l+1)*opStride], old.pc[s*opStride:(s+1)*opStride])
		copy(q.waitFor[l*opStride:(l+1)*opStride], old.waitFor[s*opStride:(s+1)*opStride])
	}
	q.head = 0
}

// ringMask indexes the block ring.
func (q *refQueue) ringMask() int { return len(q.seqs) - 1 }

// slot returns the physical block slot holding seq, or -1 when seq is not
// resident (drained, squashed, or never registered).
func (q *refQueue) slot(seq int64) int {
	if q.n == 0 {
		return -1
	}
	i := seq - q.seqs[q.head]
	if i < 0 || i >= int64(q.n) {
		return -1
	}
	return (q.head + int(i)) & q.ringMask()
}

// opSlot resolves a key to its block slot and op index, or (-1, 0) when the
// key names no resident op.
func (q *refQueue) opSlot(k Key) (slot, op int) {
	s := q.slot(k.Seq)
	if s < 0 || int(k.LSID) >= int(q.nops[s]) {
		return -1, 0
	}
	return s, int(k.LSID)
}

// RegisterBlock reserves entries for a block's memory operations at map
// time.  Blocks must be registered in ascending, contiguous sequence order
// (the simulator maps every block through here, so "seq − base" indexing
// holds by construction).
func (q *refQueue) RegisterBlock(seq int64, ops []OpInfo) {
	if q.n > 0 {
		last := q.seqs[(q.head+q.n-1)&q.ringMask()]
		if last >= seq {
			panic(fmt.Sprintf("lsq: block %d registered after %d", seq, last))
		}
		if seq != last+1 {
			panic(fmt.Sprintf("lsq: block %d not contiguous after %d", seq, last))
		}
	}
	if q.n == len(q.seqs) {
		q.grow(2 * len(q.seqs))
	}
	s := (q.head + q.n) & q.ringMask()
	q.n++
	q.seqs[s] = seq
	q.nops[s] = uint8(len(ops))
	q.stores[s], q.exec[s], q.null[s] = 0, 0, 0
	q.committed[s], q.addrCom[s], q.dataCom[s] = 0, 0, 0
	q.issued[s], q.certified[s], q.inputsCom[s] = 0, 0, 0
	q.parked[s], q.waitValid[s] = 0, 0
	base := s * opStride
	end := base + len(ops)
	clear(q.addr[base:end])
	clear(q.data[base:end])
	clear(q.tag[base:end])
	for i, op := range ops {
		if int(op.LSID) != i {
			panic(fmt.Sprintf("lsq: block %d ops not dense at %d", seq, i))
		}
		q.size[base+i] = uint8(op.Size)
		q.pc[base+i] = op.PC
		ref := predictor.DynRef{Seq: seq, LSID: op.LSID}
		// Dependence capture happens here, in LSID (dispatch) order, so a
		// load's LFST lookup sees exactly the stores older than it — the
		// in-order dispatch semantics of the store-set design.
		switch {
		case op.IsStore:
			q.stores[s].Set(i)
			if q.ss != nil {
				q.ss.StoreFetched(op.PC, ref)
			}
		case q.cfg.Policy == core.IssueStoreSet && q.ss != nil:
			q.waitFor[base+i] = q.ss.LoadDependence(op.PC)
			q.waitValid[s].Set(i)
		case q.cfg.Policy == core.IssueOracle && q.oracle != nil:
			q.waitFor[base+i] = q.oracle.LoadDependence(ref)
			q.waitValid[s].Set(i)
		}
	}
	q.resident += len(ops)
	if q.resident > q.Stats.PeakOccupancy {
		q.Stats.PeakOccupancy = q.resident
	}
}

func (q *refQueue) occupancy() int { return q.resident }

// SquashFrom removes every block with sequence >= seq.
func (q *refQueue) SquashFrom(seq int64) {
	if q.n > 0 {
		cut := seq - q.seqs[q.head]
		if cut < 0 {
			cut = 0
		}
		for l := int(cut); l < q.n; l++ {
			q.resident -= int(q.nops[(q.head+l)&q.ringMask()])
		}
		if int64(q.n) > cut {
			q.n = int(cut)
		}
	}
	q.filterKeys(&q.deferred, seq)
	q.filterKeys(&q.certCand, seq)
	q.dirty = true
	q.certDirty = true
}

func (q *refQueue) filterKeys(keys *[]Key, fromSeq int64) {
	kept := (*keys)[:0]
	for _, k := range *keys {
		if k.Seq < fromSeq {
			kept = append(kept, k)
		}
	}
	*keys = kept
}

// LoadTry records a load execution (the address arriving at the LSQ) and
// attempts to issue it under the configured policy.  Re-executions of the
// same load (a new address under DSRE) re-enter here and produce a fresh
// reply.  now is the current cycle, used for MSHR accounting.
func (q *refQueue) LoadTry(now int64, k Key, addr uint64, tag core.Tag) LoadResult {
	s, op := q.opSlot(k)
	if s < 0 || q.stores[s].Test(op) {
		return LoadResult{Deferred: true, Reason: DeferNone} // stale message for a squashed block
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	q.exec[s].Set(op)
	q.addr[f] = addr
	if first {
		q.Stats.Loads++
	}
	// Tag of the reply: never older than anything already sent for this
	// load, so consumers accept the newest execution.
	q.tag[f] = core.MaxTag(q.tag[f], tag)
	return q.tryIssue(now, k, s, op)
}

// tryIssue applies the policy and, if permitted, produces the load's value.
func (q *refQueue) tryIssue(now int64, k Key, s, op int) LoadResult {
	f := s*opStride + op
	if reason := q.mustDefer(k, s, op); reason != DeferNone {
		if !q.parked[s].Test(op) {
			q.parked[s].Set(op)
			q.deferred = append(q.deferred, k)
		}
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
			if !q.parked[s].Test(op) {
				q.parked[s].Set(op)
				q.deferred = append(q.deferred, k)
			}
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

// GuardLoad marks a flushed violating load: its replayed instance (same
// dynamic key) issues conservatively, guaranteeing forward progress.
func (q *refQueue) GuardLoad(k Key) {
	q.guard[k] = true
	q.Stats.GuardedLoads++
}

// mustDefer evaluates the issue policy for a load whose address is known.
func (q *refQueue) mustDefer(k Key, s, op int) DeferReason {
	if q.guard[k] && q.anyOlderStoreUnexecuted(k) {
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
		f := s*opStride + op
		if !q.waitValid[s].Test(op) || !q.waitFor[f].Valid() {
			return DeferNone
		}
		w := Key{Seq: q.waitFor[f].Seq, LSID: q.waitFor[f].LSID}
		if !w.Less(k) {
			return DeferNone // not actually older; ignore
		}
		ws, wop := q.opSlot(w)
		if ws < 0 || !q.stores[ws].Test(wop) || q.exec[ws].Test(wop) {
			return DeferNone // gone from the window, or already executed
		}
		return DeferPolicy
	}
	return DeferNone
}

// anyOlderStoreUnexecuted reports whether some store older than k in the
// window has not yet executed: one AND-NOT word test per block (the
// bitmap replacement for the old per-entry scan).
func (q *refQueue) anyOlderStoreUnexecuted(k Key) bool {
	if q.n == 0 {
		return false
	}
	base := q.seqs[q.head]
	last := k.Seq - base
	if last >= int64(q.n) {
		last = int64(q.n) - 1
	}
	for l := int64(0); l <= last; l++ {
		s := (q.head + int(l)) & q.ringMask()
		pend := q.stores[s] &^ q.exec[s]
		if base+l == k.Seq {
			pend = pend.Below(int(k.LSID))
		}
		if !pend.Empty() {
			return true
		}
	}
	return false
}

// HasReadyWork reports whether the next TakeReady call will re-evaluate
// parked loads (as opposed to returning immediately).  The event-driven
// run loop uses it to classify a cycle as active: a re-evaluation scan can
// issue loads or count deferral retries even when it returns nothing.
func (q *refQueue) HasReadyWork() bool {
	return (q.dirty || q.mshrWait) && len(q.deferred) > 0
}

// TakeReady re-evaluates parked loads and returns those that can now issue,
// appending into buf (pass buf[:0] to reuse a scratch buffer; the result
// must be consumed before the next call).  Call once per cycle; it is cheap
// when nothing changed.  Loads parked on a full MSHR file are retried every
// cycle regardless of queue events.
func (q *refQueue) TakeReady(now int64, buf []ReadyLoad) []ReadyLoad {
	if !q.HasReadyWork() {
		q.dirty = false
		return buf
	}
	q.dirty = false
	q.mshrWait = false
	out := buf
	kept := q.deferred[:0]
	for _, k := range q.deferred {
		s, op := q.opSlot(k)
		if s < 0 || !q.parked[s].Test(op) {
			continue // squashed or already issued
		}
		r := q.tryIssue(now, k, s, op)
		if r.Deferred {
			kept = append(kept, k)
			continue
		}
		out = append(out, ReadyLoad{Load: k, Addr: q.addr[s*opStride+op], Res: r})
	}
	q.deferred = kept
	return out
}

// LoadInputsCommitted marks that the load's address operands are final (the
// commit wave reached its inputs); the load becomes a certification
// candidate.
func (q *refQueue) LoadInputsCommitted(k Key) {
	s, op := q.opSlot(k)
	if s < 0 || q.stores[s].Test(op) || q.inputsCom[s].Test(op) {
		return
	}
	q.inputsCom[s].Set(op)
	q.certCand = append(q.certCand, k)
	q.dirty = true
	q.certDirty = true
}

// TakeCertifiable returns loads that are newly certifiable: issued, address
// final, and every older store committed — appending into buf (pass buf[:0]
// to reuse a scratch buffer).  The returned value is asserted equal to the
// load's current value — every store update re-checked younger loads, so a
// mismatch here would be a protocol bug.
func (q *refQueue) TakeCertifiable(buf []CertifiedLoad) []CertifiedLoad {
	if len(q.certCand) == 0 || !q.certDirty {
		// Nothing to certify, or nothing relevant changed since the last
		// scan: skipping is behaviour-identical (a yield-less scan moves no
		// statistics) and avoids the O(candidates × stores) walk.
		return buf
	}
	q.certDirty = false
	out := buf
	kept := q.certCand[:0]
	for _, k := range q.certCand {
		s, op := q.opSlot(k)
		if s < 0 {
			continue
		}
		if q.certified[s].Test(op) {
			continue
		}
		f := s*opStride + op
		laddr, lsize := q.addr[f], int(q.size[f])
		if !q.issued[s].Test(op) || !q.olderStoresSafe(k, laddr, lsize) {
			kept = append(kept, k)
			continue
		}
		v, _ := q.reconstruct(k, laddr, lsize)
		if v != q.data[f] {
			panic("lsq: certification value mismatch for " + k.String() + " (missed violation)")
		}
		q.certified[s].Set(op)
		out = append(out, CertifiedLoad{Load: k, Addr: laddr, Value: v})
	}
	q.certCand = kept
	return out
}

// olderStoresSafe reports whether no older store can still change the
// load's value: every older store is either fully committed, or has a
// committed (final) address that provably does not overlap the load.  The
// second case is what keeps the commit wave's memory leg from serialising
// on false dependences: only true aliases wait for store data.
//
// The scan is mask-first: per block, the uncommitted-store candidates are
// one AND-NOT, the "address provably final and live" filter is one more
// word expression, and only candidates surviving both reach the per-bit
// address-overlap check.
func (q *refQueue) olderStoresSafe(k Key, laddr uint64, lsize int) bool {
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
		safeAddr := q.addrCom[s] & q.exec[s] &^ q.null[s]
		if !(cand &^ safeAddr).Empty() {
			return false
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
func (q *refQueue) Occupancy() int { return q.occupancy() }

// MarkDirty forces deferred-load re-evaluation on the next TakeReady (used
// by the simulator after events the queue cannot see, e.g. MSHR drain).
func (q *refQueue) MarkDirty() { q.dirty = true }

// StoreUpdate records a store execution (or re-execution under DSRE: the
// same store arriving again with a possibly different address or data) and
// returns the violations it exposes: younger issued loads whose
// reconstructed value changed.  tag is the wave tag the store executed
// under (zero when un-speculative); violations it exposes carry it as
// StoreTag so forensics can chain wave depths.
func (q *refQueue) StoreUpdate(k Key, addr uint64, data int64, tag core.Tag, addrCom, dataCom bool) []Violation {
	s, op := q.opSlot(k)
	if s < 0 || !q.stores[s].Test(op) {
		return nil // stale message for a squashed block
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	oldAddr, oldSize := q.addr[f], int(q.size[f])
	wasLive := q.exec[s].Test(op) && !q.null[s].Test(op)
	q.exec[s].Set(op)
	q.null[s].Clear(op)
	q.addr[f] = addr
	q.data[f] = data
	q.tag[f] = tag
	if addrCom {
		q.addrCom[s].Set(op)
	}
	if dataCom {
		q.dataCom[s].Set(op)
	}
	if q.addrCom[s].Test(op) && q.dataCom[s].Test(op) {
		q.markStoreCommitted(s, op)
	}
	if first {
		q.Stats.Stores++
		if q.ss != nil {
			q.ss.StoreDone(q.pc[f], predictor.DynRef{Seq: k.Seq, LSID: k.LSID})
		}
	}
	q.dirty = true
	q.certDirty = true

	// Affected range: where the store's bytes used to land plus where they
	// land now.
	size := int(q.size[f])
	var vs []Violation
	vs = q.recheckLoads(k, addr, size, vs)
	if wasLive && (oldAddr != addr || oldSize != size) {
		vs = q.recheckLoads(k, oldAddr, oldSize, vs)
	}
	if len(vs) == 0 && !first {
		q.Stats.SilentStoreHits++
	}
	return vs
}

// StoreNullify records that a predicated store resolved to not execute.
// Loads that had forwarded from a previous (mis-speculated) execution of
// this store must be re-checked.
func (q *refQueue) StoreNullify(k Key) []Violation {
	s, op := q.opSlot(k)
	if s < 0 || !q.stores[s].Test(op) {
		return nil
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	oldAddr, oldSize := q.addr[f], int(q.size[f])
	wasLive := q.exec[s].Test(op) && !q.null[s].Test(op)
	q.exec[s].Set(op)
	q.null[s].Set(op)
	if first {
		q.Stats.Stores++
		if q.ss != nil {
			q.ss.StoreDone(q.pc[f], predictor.DynRef{Seq: k.Seq, LSID: k.LSID})
		}
	}
	q.dirty = true
	q.certDirty = true
	if wasLive {
		return q.recheckLoads(k, oldAddr, oldSize, nil)
	}
	return nil
}

// recheckLoads re-reconstructs every younger issued load overlapping
// [addr, addr+size) and emits violations for those whose value changed.
// Candidate loads per block are one mask expression (issued, not a store,
// younger than the store in its own block); the walk touches only set bits
// in ascending (violation-report) order.
func (q *refQueue) recheckLoads(store Key, addr uint64, size int, vs []Violation) []Violation {
	if size == 0 {
		return vs
	}
	ss, sop := q.opSlot(store)
	sf := ss*opStride + sop
	storePC, storeTag := q.pc[sf], q.tag[sf]
	base := q.seqs[q.head]
	start := store.Seq - base
	if start < 0 {
		start = 0
	}
	for l := start; l < int64(q.n); l++ {
		s := (q.head + int(l)) & q.ringMask()
		cands := q.issued[s] &^ q.stores[s]
		if base+l == store.Seq {
			cands = cands.Above(int(store.LSID))
		}
		fb := s * opStride
		for m := cands; !m.Empty(); {
			i := m.Min()
			m.Clear(i)
			f := fb + i
			if !overlap(q.addr[f], int(q.size[f]), addr, size) {
				continue
			}
			lk := Key{Seq: base + l, LSID: int8(i)}
			v, _ := q.reconstruct(lk, q.addr[f], int(q.size[f]))
			if v == q.data[f] {
				continue
			}
			if q.certified[s].Test(i) {
				panic("lsq: certified load " + lk.String() + " violated by store " + store.String() + " (unsound certification)")
			}
			q.data[f] = v
			q.tag[f] = q.tags.Next()
			q.Stats.Violations++
			if q.ss != nil {
				q.ss.Violation(q.pc[f], storePC)
			}
			vs = append(vs, Violation{
				Load:     lk,
				Addr:     q.addr[f],
				Value:    v,
				Tag:      q.tag[f],
				LoadPC:   q.pc[f],
				StorePC:  storePC,
				StoreTag: storeTag,
			})
		}
	}
	return vs
}

// reconstruct assembles the value a load at key sees: for each byte, the
// youngest older live store covering it wins; uncovered bytes come from
// committed memory.  forwarded is the number of bytes supplied by stores.
// The youngest-first walk iterates live-store masks high-bit-first, so
// only executed, non-null stores are ever touched.
func (q *refQueue) reconstruct(k Key, addr uint64, size int) (val int64, forwarded int) {
	var bytes [8]byte
	var have [8]bool
	remaining := size

	var base int64
	if q.n > 0 {
		base = q.seqs[q.head]
	}
	top := k.Seq - base
	if top >= int64(q.n) {
		top = int64(q.n) - 1
	}
	// Walk blocks youngest-to-oldest up to the load's block.
	for l := top; l >= 0 && remaining > 0; l-- {
		s := (q.head + int(l)) & q.ringMask()
		live := q.stores[s] & q.exec[s] &^ q.null[s]
		if base+l == k.Seq {
			live = live.Below(int(k.LSID))
		}
		fb := s * opStride
		for m := live; !m.Empty() && remaining > 0; {
			si := m.Max()
			m.Clear(si)
			f := fb + si
			saddr, ssize := q.addr[f], int(q.size[f])
			if !overlap(addr, size, saddr, ssize) {
				continue
			}
			sdata := uint64(q.data[f])
			for i := 0; i < size; i++ {
				if have[i] {
					continue
				}
				ba := addr + uint64(i)
				if ba >= saddr && ba < saddr+uint64(ssize) {
					bytes[i] = byte(sdata >> (8 * (ba - saddr)))
					have[i] = true
					remaining--
				}
			}
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		bv := bytes[i]
		if !have[i] {
			bv = q.mem.ByteAt(addr + uint64(i))
		}
		v |= uint64(bv) << (8 * i)
	}
	return int64(v), size - remaining
}

// StoreCommitted marks a store's output final (its operand inputs are
// committed and it has executed with them, or it is committed-null).  This
// is the memory leg of the commit wave: younger loads may certify once all
// their older stores are committed.
func (q *refQueue) StoreCommitted(k Key) {
	s, op := q.opSlot(k)
	if s < 0 || !q.stores[s].Test(op) {
		return
	}
	q.markStoreCommitted(s, op)
}

func (q *refQueue) markStoreCommitted(s, op int) {
	if q.committed[s].Test(op) {
		return
	}
	q.committed[s].Set(op)
	q.addrCom[s].Set(op)
	q.dataCom[s].Set(op)
	q.dirty = true
	q.certDirty = true
}

// Drain applies the oldest block's stores to committed memory in LSID
// order, removes the block's entries, and returns the number of memory
// writes performed (for cache-drain accounting by the caller).  Removal is
// O(1): the block ring's head advances; nothing is copied.
func (q *refQueue) Drain(seq int64) int {
	s := q.slot(seq)
	if s < 0 {
		return 0
	}
	if s != q.head {
		panic("lsq: drain of non-oldest block")
	}
	writes := 0
	fb := s * opStride
	for m := q.stores[s]; !m.Empty(); {
		i := m.Min()
		m.Clear(i)
		if q.null[s].Test(i) {
			continue
		}
		k := Key{Seq: seq, LSID: int8(i)}
		if !q.exec[s].Test(i) {
			panic("lsq: drain of unexecuted store " + k.String())
		}
		f := fb + i
		if q.ValidateDrain != nil {
			if err := q.ValidateDrain(k, q.addr[f], q.data[f], int(q.size[f])); err != nil {
				panic(err)
			}
		}
		q.mem.Write(q.addr[f], q.data[f], int(q.size[f]))
		if q.hier != nil {
			q.hier.L1D.Access(q.addr[f], true)
		}
		writes++
	}
	// Map iteration order is irrelevant here: deletes are independent.
	for k := range q.guard {
		if k.Seq <= seq {
			delete(q.guard, k)
		}
	}
	q.resident -= int(q.nops[s])
	q.head = (q.head + 1) & q.ringMask()
	q.n--
	q.dirty = true
	q.certDirty = true
	return writes
}

// diffHarness drives a Queue and a reference queue in lockstep.  Each side
// has its own memory, cache hierarchy, tag source and store-set predictor,
// built identically, so identical call sequences must give identical
// results.
type diffHarness struct {
	t    *testing.T
	r    *rand.Rand
	q    *Queue
	ref  *refQueue
	qm   *mem.Memory
	refm *mem.Memory

	flush     bool // recover from violations by guard + squash, as the simulator's flush does
	maxBlocks int
	nextSeq   int64
	last      Key // the previous op resident picked
	now       int64
	deps      map[predictor.DynRef]predictor.DynRef // oracle table, shared read-only

	// logf, when set, narrates every operation (for replaying a seed).
	logf func(format string, args ...any)

	ready    []ReadyLoad
	refReady []ReadyLoad
	cert     []CertifiedLoad
	refCert  []CertifiedLoad
	viol     []Violation
}

func newDiffHarness(t *testing.T, seed int64) *diffHarness {
	r := rand.New(rand.NewSource(seed))
	h := &diffHarness{t: t, r: r, flush: r.Intn(2) == 0, maxBlocks: 1 + r.Intn(128), deps: map[predictor.DynRef]predictor.DynRef{}}
	policy := []core.IssuePolicy{core.IssueAggressive, core.IssueConservative, core.IssueStoreSet, core.IssueOracle}[r.Intn(4)]
	cfg := Config{Policy: policy, ForwardLatency: 1 + r.Intn(2)}
	hc := cache.HierConfig{
		L1D:        cache.Config{SizeBytes: 256, Assoc: 1, LineBytes: 64, HitLatency: 2},
		L1I:        cache.Config{SizeBytes: 512, Assoc: 2, LineBytes: 64, HitLatency: 1},
		L2:         cache.Config{SizeBytes: 4096, Assoc: 4, LineBytes: 64, HitLatency: 6},
		MemLatency: 20,
		MSHRs:      1 + r.Intn(2),
	}
	build := func() (*mem.Memory, *cache.Hierarchy, *predictor.StoreSet, *predictor.Oracle) {
		m := mem.New()
		for a := uint64(0); a < diffLines*64; a += 8 {
			m.Write(diffBase+a, int64(a*0x9E37), 8)
		}
		hier, err := cache.NewHierarchy(hc)
		if err != nil {
			t.Fatal(err)
		}
		return m, hier, predictor.MustNew(predictor.Config{SSITSize: 16, ClearInterval: 400}), predictor.NewOracle(h.deps)
	}
	m, hier, ss, oracle := build()
	h.q, h.qm = New(cfg, m, hier, &core.TagSource{}, ss, oracle), m
	m, hier, ss, oracle = build()
	h.ref, h.refm = newRef(cfg, m, hier, &core.TagSource{}, ss, oracle), m
	return h
}

// The randomized address space: diffLines cache lines, so loads and stores
// alias often and the tiny L1 misses often enough to exhaust its MSHRs.
const (
	diffBase  = 0x4000
	diffLines = 10
)

func (h *diffHarness) addr() uint64 {
	if h.r.Intn(4) == 0 {
		// A cold line beyond the hot set: evicts hot lines from the tiny
		// L1, so a load refused an MSHR can be refused again.
		return diffBase + diffLines*64 + uint64(h.r.Intn(64))*64
	}
	a := diffBase + uint64(h.r.Intn(diffLines))*64 + 8*uint64(h.r.Intn(4))
	if h.r.Intn(4) == 0 {
		a += uint64(h.r.Intn(8))
	}
	return a
}

// resident picks a random resident op of the reference window satisfying
// ok, or reports false.  Half the time it retries the previous pick first,
// so one op often sees several operations between two scans.
func (h *diffHarness) resident(ok func(s, op int) bool) (Key, bool) {
	ref := h.ref
	if h.r.Intn(2) == 0 {
		if s, op := ref.opSlot(h.last); s >= 0 && ok(s, op) {
			return h.last, true
		}
	}
	for try := 0; try < 8 && ref.n > 0; try++ {
		l := h.r.Intn(ref.n)
		s := (ref.head + l) & ref.ringMask()
		if ref.nops[s] == 0 {
			continue
		}
		op := h.r.Intn(int(ref.nops[s]))
		if ok(s, op) {
			h.last = Key{Seq: ref.seqs[s], LSID: int8(op)}
			return h.last, true
		}
	}
	return Key{}, false
}

func (h *diffHarness) register() {
	if h.ref.n >= h.maxBlocks {
		return
	}
	seq := h.nextSeq
	h.nextSeq++
	ops := make([]OpInfo, 1+h.r.Intn(isa.MaxMemOps))
	var stores []int8
	for i := range ops {
		ops[i] = OpInfo{LSID: int8(i), IsStore: h.r.Intn(5) < 2, Size: []int{1, 8}[h.r.Intn(2)], PC: predictor.MakePC(h.r.Intn(6), i)}
		ref := predictor.DynRef{Seq: seq, LSID: int8(i)}
		delete(h.deps, ref)
		switch {
		case ops[i].IsStore:
			stores = append(stores, int8(i))
		case h.r.Intn(2) == 0 && len(stores) > 0:
			h.deps[ref] = predictor.DynRef{Seq: seq, LSID: stores[h.r.Intn(len(stores))]}
		case h.r.Intn(2) == 0 && h.ref.n > 0:
			// An older block's op: a store, a load (ignored) or a
			// drained op (ignored) — all shapes the oracle can name.
			h.deps[ref] = predictor.DynRef{Seq: seq - 1 - int64(h.r.Intn(3)), LSID: int8(h.r.Intn(isa.MaxMemOps))}
		}
	}
	h.log("register %d %+v", seq, ops)
	h.q.RegisterBlock(seq, ops)
	h.ref.RegisterBlock(seq, ops)
}

// recover applies flush recovery to a batch of violations: guard every
// violated load, then squash from the oldest.
func (h *diffHarness) recover(vs []Violation) {
	if !h.flush || len(vs) == 0 {
		return
	}
	min := vs[0].Load
	for _, v := range vs {
		h.q.GuardLoad(v.Load)
		h.ref.GuardLoad(v.Load)
		if v.Load.Less(min) {
			min = v.Load
		}
	}
	h.squash(min.Seq)
}

func (h *diffHarness) log(format string, args ...any) {
	if h.logf != nil {
		h.logf(format, args...)
	}
}

func (h *diffHarness) squash(seq int64) {
	h.log("squash from %d", seq)
	h.q.SquashFrom(seq)
	h.ref.SquashFrom(seq)
	h.nextSeq = seq
}

// step applies one random operation, keeping to the protocol the simulator
// follows: a committed address or data operand never changes, a committed
// store is never updated, a load's inputs commit only while it holds the
// value of its current address (after which the address never changes),
// and a load whose inputs committed is guarded only as part of a squash.
func (h *diffHarness) step(i int) {
	ref, r := h.ref, h.r
	isLoad := func(s, op int) bool { return !ref.stores[s].Test(op) }
	isStore := func(s, op int) bool { return ref.stores[s].Test(op) && !ref.committed[s].Test(op) }
	switch c := r.Intn(100); {
	case c < 14:
		h.register()
	case c < 40:
		k, ok := h.resident(isLoad)
		if !ok {
			return
		}
		s, op := ref.opSlot(k)
		addr := h.addr()
		if ref.inputsCom[s].Test(op) || (ref.exec[s].Test(op) && r.Intn(2) == 0) {
			addr = ref.addr[s*opStride+op]
		}
		tag := core.Tag(r.Intn(4))
		h.log("load %v addr %#x tag %d", k, addr, tag)
		got, want := h.q.LoadTry(h.now, k, addr, tag), h.ref.LoadTry(h.now, k, addr, tag)
		if got != want {
			h.t.Fatalf("step %d LoadTry(%v): got %+v, want %+v", i, k, got, want)
		}
	case c < 62:
		k, ok := h.resident(isStore)
		if !ok {
			return
		}
		s, op := ref.opSlot(k)
		f := s*opStride + op
		addr, data := h.addr(), int64(r.Intn(1<<16))
		if ref.addrCom[s].Test(op) || (ref.exec[s].Test(op) && r.Intn(2) == 0) {
			addr = ref.addr[f]
		}
		if ref.dataCom[s].Test(op) {
			data = ref.data[f]
		}
		tag := core.Tag(r.Intn(4))
		addrCom, dataCom := r.Intn(3) == 0, r.Intn(3) == 0
		h.log("store %v addr %#x data %d tag %d addrCom %v dataCom %v", k, addr, data, tag, addrCom, dataCom)
		h.viol = h.q.StoreUpdate(k, addr, data, tag, addrCom, dataCom, h.viol[:0])
		want := h.ref.StoreUpdate(k, addr, data, tag, addrCom, dataCom)
		h.checkViolations(i, "StoreUpdate", want)
		h.recover(want)
	case c < 66:
		k, ok := h.resident(func(s, op int) bool { return isStore(s, op) && !ref.addrCom[s].Test(op) })
		if !ok {
			return
		}
		h.log("nullify %v", k)
		h.viol = h.q.StoreNullify(k, h.viol[:0])
		want := h.ref.StoreNullify(k)
		h.checkViolations(i, "StoreNullify", want)
		h.recover(want)
	case c < 72:
		k, ok := h.resident(func(s, op int) bool { return isStore(s, op) && ref.exec[s].Test(op) })
		if ok {
			h.log("store committed %v", k)
			h.q.StoreCommitted(k)
			h.ref.StoreCommitted(k)
		}
	case c < 82:
		k, ok := h.resident(func(s, op int) bool { return isLoad(s, op) && ref.issued[s].Test(op) && !ref.parked[s].Test(op) })
		if ok {
			h.log("inputs committed %v", k)
			h.q.LoadInputsCommitted(k)
			h.ref.LoadInputsCommitted(k)
		}
	case c < 83:
		// A flush of one load, as a violation the queue did not see.
		k, ok := h.resident(isLoad)
		if ok {
			h.log("guard %v", k)
			h.q.GuardLoad(k)
			h.ref.GuardLoad(k)
			h.squash(k.Seq)
		}
	case c < 84:
		// A guard on a resident load whose inputs have not committed: the
		// queue's API allows it, and it turns a parked or issued load into
		// a policy-deferred one.
		k, ok := h.resident(func(s, op int) bool { return isLoad(s, op) && !ref.inputsCom[s].Test(op) })
		if ok {
			h.log("guard in place %v", k)
			h.q.GuardLoad(k)
			h.ref.GuardLoad(k)
		}
	case c < 86:
		if ref.n > 0 {
			h.squash(ref.seqs[(ref.head+r.Intn(ref.n))&ref.ringMask()])
		}
	case c < 96:
		if ref.n == 0 {
			return
		}
		s := ref.head
		if !(ref.stores[s] &^ ref.exec[s]).Empty() {
			return
		}
		seq := ref.seqs[s]
		h.log("drain %d", seq)
		if got, want := h.q.Drain(seq), h.ref.Drain(seq); got != want {
			h.t.Fatalf("step %d Drain(%d): got %d writes, want %d", i, seq, got, want)
		}
	case c < 98:
		h.q.MarkDirty()
		h.ref.MarkDirty()
	default:
		h.now += int64(1 + r.Intn(8))
	}
}

func (h *diffHarness) checkViolations(i int, op string, want []Violation) {
	if len(h.viol) != len(want) || (len(want) > 0 && !reflect.DeepEqual(h.viol, want)) {
		h.t.Fatalf("step %d %s: violations\n got %+v\nwant %+v", i, op, h.viol, want)
	}
}

// cycle ends a simulated cycle the way the simulator does: take the ready
// loads, then the certifiable ones, and compare everything observable.
func (h *diffHarness) cycle(i int) {
	if got, want := h.q.HasReadyWork(), h.ref.HasReadyWork(); got != want {
		h.t.Fatalf("step %d HasReadyWork: got %v, want %v", i, got, want)
	}
	h.ready = h.q.TakeReady(h.now, h.ready[:0])
	h.refReady = h.ref.TakeReady(h.now, h.refReady[:0])
	if len(h.ready) != len(h.refReady) || (len(h.ready) > 0 && !reflect.DeepEqual(h.ready, h.refReady)) {
		h.t.Fatalf("step %d TakeReady:\n got %+v\nwant %+v", i, h.ready, h.refReady)
	}
	h.refCert = h.ref.TakeCertifiable(h.refCert[:0])
	h.cert = h.q.TakeCertifiable(h.cert[:0])
	if len(h.cert) != len(h.refCert) || (len(h.cert) > 0 && !reflect.DeepEqual(h.cert, h.refCert)) {
		h.t.Fatalf("step %d TakeCertifiable:\n got %+v\nwant %+v", i, h.cert, h.refCert)
	}
	if h.q.Stats != h.ref.Stats {
		h.t.Fatalf("step %d Stats:\n got %+v\nwant %+v", i, h.q.Stats, h.ref.Stats)
	}
	if got, want := h.q.Occupancy(), h.ref.Occupancy(); got != want {
		h.t.Fatalf("step %d Occupancy: got %d, want %d", i, got, want)
	}
	h.now++
}

// TestQueueMatchesReference checks the frontier, wake-list and signature
// queue against the reference queue on randomized operation streams: every
// policy, flush-style and DSRE-style recovery, windows of up to 128 blocks,
// few MSHRs, and aliasing addresses.  After every simulated cycle the ready
// and certified loads (in order), the violations, HasReadyWork, occupancy
// and Stats must match exactly.  The seeds are fixed, so any failure
// replays.
func TestQueueMatchesReference(t *testing.T) {
	streams, steps := 300, 3000
	if testing.Short() {
		streams = 60
	}
	for seed := int64(1); seed <= int64(streams); seed++ {
		h := newDiffHarness(t, seed)
		for i := 0; i < steps; {
			for n := 1 + h.r.Intn(8); n > 0; n-- {
				h.step(i)
				i++
			}
			h.cycle(i)
		}
		if !h.qm.Equal(h.refm) {
			t.Fatalf("seed %d: committed memory differs", seed)
		}
	}
}

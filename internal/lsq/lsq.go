// Package lsq implements the load/store queue of the simulated EDGE
// machine: the structure that gives dataflow execution conventional
// sequential memory semantics (the central difficulty the paper's abstract
// calls out versus single-assignment dataflow machines).
//
// Responsibilities:
//
//   - total memory order: dynamic memory operations are ordered by
//     (block sequence, load/store ID);
//   - store→load forwarding with byte-granularity reconstruction: a load's
//     value is assembled byte-by-byte from the youngest older executed
//     store covering each byte, falling back to committed memory;
//   - load issue policy: conservative, aggressive, store-set-predicted or
//     oracle-directed deferral of loads (the policies the paper compares);
//   - violation detection: whenever a store executes, re-executes with a
//     changed address/data, or nullifies, every younger issued load whose
//     reconstructed value changes is reported for recovery (flush or DSRE);
//   - the memory leg of the commit wave: a load certifies (may send commit
//     tokens) only when its address is final and every older store is
//     committed.
//
// Layout: the queue is a structure-of-arrays window.  Blocks occupy a
// power-of-two ring of slots in ascending-sequence order (sequences are
// contiguous: the simulator registers every mapped block and removes them
// only by committing the head or squashing a suffix), so a block lookup is
// "seq − base" arithmetic, never a map.  Per-op dynamic state lives in one
// bitset.Mask32 per block per predicate (declared-store, executed, null,
// committed, issued, ...) plus flat stride-32 arrays for the word-sized
// fields (addr, data, tag, ...).  Walks touch only set bits.
//
// Host cost follows simulated work, not window depth (the scalable
// disambiguation scheme of Sethumadhavan et al., MICRO-36 2003):
//
//   - certification walks candidates only up to the unresolved-store
//     frontier — the oldest uncommitted store whose address is not final —
//     since no younger load can certify;
//   - a policy-parked load sleeps until its wait condition can have
//     changed (its predicted store's first execution, or the oldest
//     unexecuted store moving past it) instead of being re-evaluated every
//     scan; the deferral count it would have accrued is added in bulk;
//   - per-block 64-bit load- and store-address signatures (one bit per
//     hashed 8-byte word) let violation recheck, forwarding and the alias
//     check skip a block with one AND.
//
// ref_test.go keeps the direct walks as a reference queue and checks this
// one against it on randomized operation streams.
package lsq

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/predictor"
)

// opStride is the per-block op-array stride: the ISA's LSID space.
const opStride = isa.MaxMemOps

// Key orders dynamic memory operations: block sequence first, then LSID.
type Key struct {
	Seq  int64
	LSID int8
}

// Less reports whether k is older than o in memory order.
func (k Key) Less(o Key) bool {
	if k.Seq != o.Seq {
		return k.Seq < o.Seq
	}
	return k.LSID < o.LSID
}

// String renders the key.
func (k Key) String() string { return fmt.Sprintf("b%d.ls%d", k.Seq, k.LSID) }

// OpInfo declares one memory operation at block map time.
type OpInfo struct {
	LSID    int8
	IsStore bool
	Size    int
	PC      predictor.PC
}

// Violation reports a load whose previously returned value is stale.
type Violation struct {
	Load    Key
	Addr    uint64 // the load's address (for D-tile bank routing)
	Value   int64  // corrected value
	Tag     core.Tag
	LoadPC  predictor.PC
	StorePC predictor.PC
	// StoreTag is the wave tag the conflicting store executed under (zero
	// if it ran un-speculatively), so forensics can chain wave depths.
	StoreTag core.Tag
}

// ReadyLoad is a load whose value is (now) available.
type ReadyLoad struct {
	Load Key
	Addr uint64
	Res  LoadResult
}

// DeferReason says why a load could not issue, for statistics.
type DeferReason int

// Deferral reasons.
const (
	DeferNone DeferReason = iota
	DeferPolicy
	DeferMSHR
)

// Stats counts LSQ events.
type Stats struct {
	Loads           int64
	Stores          int64
	Forwards        int64 // loads fully satisfied by forwarding
	PartialForwards int64 // loads mixing store bytes and memory bytes
	Violations      int64
	SilentStoreHits int64 // store updates that changed no load's value
	DeferredPolicy  int64
	DeferredMSHR    int64
	GuardedLoads    int64
	PeakOccupancy   int
}

// Config parameterises the queue.
type Config struct {
	Policy core.IssuePolicy
	// ForwardLatency is the store→load forwarding latency in cycles.
	ForwardLatency int
	// ViolationLatency is the delay before a corrected value is
	// re-broadcast after a violation is detected.
	ViolationLatency int
}

// Queue is the load/store queue.
type Queue struct {
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
	parked    []bitset.Mask32 // load deferred, awaiting re-evaluation
	waitValid []bitset.Mask32 // waitFor captured at registration
	sleepWait []bitset.Mask32 // parked until waitFor's first execution
	sleepOld  []bitset.Mask32 // parked until every older store executed
	// guarded holds loads that violated and were flushed: their refetched
	// instances (same key) replay conservatively, which is what keeps
	// flush recovery livelock-free when a load conflicts with a store in
	// its own block.  Unlike the rest it survives SquashFrom and the
	// re-registration of the same sequence (which lands in the same slot);
	// Drain clears it.
	guarded []bitset.Mask32

	// Address signatures: one bit per hashed 8-byte word (sigOf) of every
	// address a block's loads / stores have had since registration.  A
	// superset, so an empty AND proves no overlap.
	loadSig  []uint64
	storeSig []uint64

	// Flat per-op fields, stride opStride, indexed slot*opStride + LSID.
	addr    []uint64
	data    []int64 // store data, or the load's last returned value
	tag     []core.Tag
	size    []uint8
	pc      []predictor.PC
	waitFor []predictor.DynRef
	// link threads each store's waiter list through the op arrays: for a
	// store, the first load whose waitFor names it (registered while the
	// store was unexecuted); for a load, the next waiter of the same store;
	// -1 ends a list.  Lists are youngest-first (loads prepend at
	// registration), so a squash pops a prefix.
	link []int32
	// nent counts the load's entries in the parked list (see active
	// below); pstamp is a sleeping load's entry position.
	nent   []uint8
	pstamp []uint32
	// cstamp orders certification candidates by arrival, the order
	// TakeCertifiable reports them in.
	cstamp []uint32

	resident int // ops across blocks (occupancy is read every cycle)

	// Parked loads.  They form a list — one entry per park, in park
	// order, pruned at each TakeReady scan — but only entries whose
	// outcome can change are held: a sleeper (a policy-parked load with a
	// single entry, sleepWait or sleepOld set) keeps its entry position in
	// pstamp and is counted in nsleep; woken holds the sleepers whose wait
	// resolved since the last scan; active holds every other entry
	// (MSHR-parked loads, loads with several entries, and entries of loads
	// that issued since, which the next scan drops).
	active   []parkEntry
	woken    []parkEntry
	merged   []parkEntry // TakeReady scratch
	nsleep   int
	parkSeq  uint32
	candSeq  uint32
	dirty    bool
	mshrWait bool // some load parked on MSHR pressure; retry every cycle

	// unexecSeq is the block holding the oldest unexecuted store, or one
	// past the youngest block when every store has executed: the frontier
	// that the conservative and guarded policies wait on.
	unexecSeq int64

	// certDirty gates TakeCertifiable's scan: a parked certification
	// candidate can only become certifiable when a store commits, executes,
	// nullifies or leaves the window, a load issues, or a new candidate
	// arrives — every such mutation sets it.  A scan that yields nothing has
	// no side effects, so skipping it while the flag is clear is
	// behaviour-identical and avoids a rescan per cycle.
	certDirty bool

	// ValidateDrain, when set (tests), is called for every drained store
	// with its final address and data; an error aborts the run loudly.
	ValidateDrain func(k Key, addr uint64, data int64, size int) error

	Stats Stats
}

// parkEntry is one entry of the parked-load list.
type parkEntry struct {
	stamp uint32 // park order
	k     Key
}

// before orders park and candidate stamps; the difference form survives
// counter wrap-around (live stamps span far less than 2^31).
func before(a, b uint32) bool { return int32(a-b) < 0 }

// New builds a queue.  mem holds committed state; hier provides data-side
// timing; tags allocates violation wave tags; ss and oracle may be nil when
// the policy does not use them.
func New(cfg Config, m *mem.Memory, hier *cache.Hierarchy, tags *core.TagSource, ss *predictor.StoreSet, oracle *predictor.Oracle) *Queue {
	if cfg.ForwardLatency <= 0 {
		cfg.ForwardLatency = 1
	}
	if cfg.ViolationLatency <= 0 {
		cfg.ViolationLatency = 1
	}
	q := &Queue{
		cfg:    cfg,
		mem:    m,
		hier:   hier,
		tags:   tags,
		ss:     ss,
		oracle: oracle,
	}
	q.grow(16)
	return q
}

// grow (re)allocates the block ring with capacity c (a power of two),
// relocating live blocks so the oldest lands at slot 0.
func (q *Queue) grow(c int) {
	old := *q
	q.seqs = make([]int64, c)
	q.nops = make([]uint8, c)
	masks := make([]bitset.Mask32, 14*c)
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
	q.waitValid, masks = masks[:c:c], masks[c:]
	q.sleepWait, masks = masks[:c:c], masks[c:]
	q.sleepOld, masks = masks[:c:c], masks[c:]
	q.guarded = masks[:c:c]
	sigs := make([]uint64, 2*c)
	q.loadSig, q.storeSig = sigs[:c:c], sigs[c:]
	q.addr = make([]uint64, c*opStride)
	q.data = make([]int64, c*opStride)
	q.tag = make([]core.Tag, c*opStride)
	q.size = make([]uint8, c*opStride)
	q.pc = make([]predictor.PC, c*opStride)
	q.waitFor = make([]predictor.DynRef, c*opStride)
	q.link = make([]int32, c*opStride)
	q.nent = make([]uint8, c*opStride)
	stamps := make([]uint32, 2*c*opStride)
	q.pstamp, q.cstamp = stamps[:c*opStride:c*opStride], stamps[c*opStride:]
	oldMask := len(old.seqs) - 1
	for l := 0; l < old.n; l++ {
		s := (old.head + l) & oldMask
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
		q.sleepWait[l] = old.sleepWait[s]
		q.sleepOld[l] = old.sleepOld[s]
		q.guarded[l] = old.guarded[s]
		q.loadSig[l] = old.loadSig[s]
		q.storeSig[l] = old.storeSig[s]
		src, dst := s*opStride, l*opStride
		copy(q.addr[dst:dst+opStride], old.addr[src:src+opStride])
		copy(q.data[dst:dst+opStride], old.data[src:src+opStride])
		copy(q.tag[dst:dst+opStride], old.tag[src:src+opStride])
		copy(q.size[dst:dst+opStride], old.size[src:src+opStride])
		copy(q.pc[dst:dst+opStride], old.pc[src:src+opStride])
		copy(q.waitFor[dst:dst+opStride], old.waitFor[src:src+opStride])
		copy(q.nent[dst:dst+opStride], old.nent[src:src+opStride])
		copy(q.pstamp[dst:dst+opStride], old.pstamp[src:src+opStride])
		copy(q.cstamp[dst:dst+opStride], old.cstamp[src:src+opStride])
		// Links name physical op indices: relocate them with their slots.
		// Every reachable link names a resident op; the rest are dead and
		// never followed, so relocating them too is harmless.
		for i := 0; i < opStride; i++ {
			v := old.link[src+i]
			if v >= 0 {
				v = int32(((int(v)/opStride-old.head)&oldMask)*opStride + int(v)%opStride)
			}
			q.link[dst+i] = v
		}
	}
	// Every slot is live when the ring is full, so no guarded bits of a
	// squashed, not yet re-registered sequence are left behind.
	q.head = 0
}

// ringMask indexes the block ring.
func (q *Queue) ringMask() int { return len(q.seqs) - 1 }

// slot returns the physical block slot holding seq, or -1 when seq is not
// resident (drained, squashed, or never registered).
func (q *Queue) slot(seq int64) int {
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
func (q *Queue) opSlot(k Key) (slot, op int) {
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
func (q *Queue) RegisterBlock(seq int64, ops []OpInfo) {
	if q.n > 0 {
		last := q.seqs[(q.head+q.n-1)&q.ringMask()]
		if last >= seq {
			panic(fmt.Sprintf("lsq: block %d registered after %d", seq, last))
		}
		if seq != last+1 {
			panic(fmt.Sprintf("lsq: block %d not contiguous after %d", seq, last))
		}
	} else {
		q.unexecSeq = seq
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
	q.sleepWait[s], q.sleepOld[s] = 0, 0
	q.loadSig[s], q.storeSig[s] = 0, 0
	base := s * opStride
	end := base + len(ops)
	clear(q.addr[base:end])
	clear(q.data[base:end])
	clear(q.tag[base:end])
	clear(q.nent[base:end])
	for i, op := range ops {
		if int(op.LSID) != i {
			panic(fmt.Sprintf("lsq: block %d ops not dense at %d", seq, i))
		}
		f := base + i
		q.size[f] = uint8(op.Size)
		q.pc[f] = op.PC
		q.link[f] = -1
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
			continue
		case q.cfg.Policy == core.IssueStoreSet && q.ss != nil:
			q.waitFor[f] = q.ss.LoadDependence(op.PC)
			q.waitValid[s].Set(i)
		case q.cfg.Policy == core.IssueOracle && q.oracle != nil:
			q.waitFor[f] = q.oracle.LoadDependence(ref)
			q.waitValid[s].Set(i)
		default:
			continue
		}
		// A load that may wait on its store joins that store's waiter
		// list now: the wait predicate can only turn false when the store
		// first executes, which is when the list is woken.
		if wf := q.waitStore(Key{Seq: seq, LSID: op.LSID}, f); wf >= 0 {
			q.link[f] = q.link[wf]
			q.link[wf] = int32(f)
		}
	}
	q.resident += len(ops)
	if q.resident > q.Stats.PeakOccupancy {
		q.Stats.PeakOccupancy = q.resident
	}
	if q.unexecSeq == seq {
		q.advanceUnexec()
	}
}

// waitStore returns the flat index of the store load k (at flat index f)
// is told to wait for, when that store is older, resident, declared a store
// and still unexecuted; -1 otherwise.  This is the store-set/oracle
// deferral predicate.
func (q *Queue) waitStore(k Key, f int) int {
	w := q.waitFor[f]
	if !w.Valid() {
		return -1
	}
	wk := Key{Seq: w.Seq, LSID: w.LSID}
	if !wk.Less(k) {
		return -1 // not actually older; ignore
	}
	ws, wop := q.opSlot(wk)
	if ws < 0 || !q.stores[ws].Test(wop) || q.exec[ws].Test(wop) {
		return -1 // gone from the window, or already executed
	}
	return ws*opStride + wop
}

func (q *Queue) occupancy() int { return q.resident }

// SquashFrom removes every block with sequence >= seq.
func (q *Queue) SquashFrom(seq int64) {
	if q.n > 0 {
		cut := seq - q.seqs[q.head]
		if cut < 0 {
			cut = 0
		}
		if int64(q.n) > cut {
			oldN := q.n
			q.n = int(cut)
			for l := int(cut); l < oldN; l++ {
				s := (q.head + l) & q.ringMask()
				q.resident -= int(q.nops[s])
				q.nsleep -= (q.sleepWait[s] | q.sleepOld[s]).Count()
				// Pop the squashed loads off their surviving stores'
				// waiter lists (youngest-first, so they form a prefix).
				for m := q.waitValid[s]; !m.Empty(); {
					i := m.Min()
					m.Clear(i)
					w := q.waitFor[s*opStride+i]
					ws, wop := q.opSlot(Key{Seq: w.Seq, LSID: w.LSID})
					if ws < 0 {
						continue
					}
					wf := ws*opStride + wop
					for h := q.link[wf]; h >= 0 && q.slot(q.seqs[int(h)/opStride]) < 0; h = q.link[wf] {
						q.link[wf] = q.link[h]
					}
				}
			}
			q.unexecSeq = min(q.unexecSeq, q.seqs[q.head]+cut)
		}
	}
	q.active = filterEntries(q.active, seq)
	q.woken = filterEntries(q.woken, seq)
	q.dirty = true
	q.certDirty = true
}

func filterEntries(es []parkEntry, fromSeq int64) []parkEntry {
	kept := es[:0]
	for _, e := range es {
		if e.k.Seq < fromSeq {
			kept = append(kept, e)
		}
	}
	return kept
}

// overlap reports whether [a, a+as) and [b, b+bs) intersect.
func overlap(a uint64, as int, b uint64, bs int) bool {
	return a < b+uint64(bs) && b < a+uint64(as)
}

// sigOf is the address signature of [addr, addr+size): the hashed bits of
// the (at most two, for size <= 8) 8-byte words it touches.  Overlapping
// accesses share a word, so their signatures intersect.
func sigOf(addr uint64, size int) uint64 {
	lo, hi := addr>>3, (addr+uint64(size)-1)>>3
	return wordBit(lo) | wordBit(hi)
}

func wordBit(w uint64) uint64 { return 1 << ((w * 0x9E3779B97F4A7C15) >> 58) }

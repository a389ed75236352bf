package sim

import (
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/isa"
)

// instState is the dynamic state of one instruction slot in a mapped block:
// a DSRE reservation station.  The hot per-instruction state lives in the
// owning blockInst's structure-of-arrays fields instead: operand slots in
// the flat ops array (stride isa.NumSlots) and the needExec/queued flags in
// the need/queued bitmaps, so the scheduler and delivery paths touch dense
// cache lines rather than striding over this struct.
type instState struct {
	// inflight counts executions currently in the ALU pipeline; commit-only
	// emission must wait for quiescence or it would certify a stale output.
	inflight int
	// fired counts executions (re-executions are fired > 1).
	fired int64
	// lastOut and outTag describe the most recent output broadcast.
	lastOut   int64
	outTag    core.Tag
	execValid bool

	// committedSent marks that the final (committed) output was emitted.
	committedSent bool
	// nullTag is the newest predicate tag for which a store-null was sent.
	nullTag      core.Tag
	nullSent     bool
	nullCommSent bool
	// storeCommitCounted dedups this store's contribution to the block's
	// committed-store count.
	storeCommitCounted bool
	// sentAddrCom/sentDataCom dedup partial store-commit messages.
	sentAddrCom bool
	sentDataCom bool
	// Value prediction state (loads only): the value speculatively
	// broadcast at map time, and a training dedup flag.
	vpValid   bool
	vpTrained bool
	vpValue   int64
}

// slot returns instruction i's operand slot s in the block's flat SoA
// operand buffer.
func (b *blockInst) slot(i int, s isa.Slot) *core.OperandSlot {
	return &b.ops[i*int(isa.NumSlots)+int(s)]
}

// storeCommitFlags reports whether the commit wave has reached a store's
// address and data operands (the predicate, when present, gates both).
func (b *blockInst) storeCommitFlags(i int, in *isa.Inst) (addrCom, dataCom bool) {
	predOK := in.Pred == isa.PredNone || b.slot(i, isa.SlotP).Committed
	return predOK && b.slot(i, isa.SlotA).Committed, predOK && b.slot(i, isa.SlotB).Committed
}

// inputsCommitted reports whether every operand slot instruction i waits
// on holds a committed value.
func (b *blockInst) inputsCommitted(i int, in *isa.Inst) bool {
	for s := isa.SlotA; s < isa.NumSlots; s++ {
		if in.NeedsSlot(s) && !b.slot(i, s).Committed {
			return false
		}
	}
	return true
}

// operandsPresent reports whether every needed slot of instruction i holds
// a value.
func (b *blockInst) operandsPresent(i int, in *isa.Inst) bool {
	for s := isa.SlotA; s < isa.NumSlots; s++ {
		if in.NeedsSlot(s) && !b.slot(i, s).Present {
			return false
		}
	}
	return true
}

// predEnabled reports instruction i's predicate check: ok is false while
// the predicate has not arrived.
func (b *blockInst) predEnabled(i int, in *isa.Inst) (enabled, ok bool) {
	if in.Pred == isa.PredNone {
		return true, true
	}
	p := b.slot(i, isa.SlotP)
	if !p.Present {
		return false, false
	}
	truth := p.Value != 0
	return (in.Pred == isa.PredTrue) == truth, true
}

// writeState is one register write slot of a mapped block, physically
// homed at a register tile.
type writeState struct {
	slot    core.OperandSlot
	counted bool // contributed to writesCommitted
}

// blockInst is one in-flight dynamic block.
type blockInst struct {
	seq     int64
	blockID int
	bdef    *isa.Block
	frame   int32
	gen     uint32

	insts  []instState
	writes []writeState

	// ops is the block's operand buffer in structure-of-arrays form: the
	// isa.NumSlots operand slots of instruction i live at
	// ops[i*NumSlots : (i+1)*NumSlots] (see slot).
	ops []core.OperandSlot
	// need marks instructions that must (re-)execute: an operand changed
	// since the last execution, or they have never executed.
	need bitset.Mask128
	// queued marks instructions resident in a tile ready mask.
	queued bitset.Mask128

	// branch is the block's control outcome (value = next block ID),
	// written by whichever branch instruction fires.
	branch        core.OperandSlot
	branchCounted bool

	// readBind maps each register read slot to the producing older block's
	// sequence number, or -1 for the architectural register file.
	readBind []int64
	// regRead maps register number -> read slot index, for producer pushes.
	regRead map[uint8]int

	writesCommitted int
	storesCommitted int
	numStores       int
	predictedNext   int   // what fetch predicted would follow (for stats)
	mapCycle        int64 // cycle the block was mapped, for residency spans

	// firedExecs sums insts[i].fired and firedInsts counts the instructions
	// with fired > 0, both kept where fired advances, so squash, commit and
	// the squash-equivalent cost read a block's totals in O(1).
	firedExecs int64
	firedInsts int64
}

// outputsCommitted reports whether the block's architectural outputs are
// all final: branch, register writes and stores (or their null tokens).
func (b *blockInst) outputsCommitted() bool {
	return b.branch.Committed &&
		b.writesCommitted == len(b.writes) &&
		b.storesCommitted == b.numStores
}

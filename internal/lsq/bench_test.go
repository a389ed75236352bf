package lsq

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/predictor"
)

func benchQueue(b *testing.B, policy core.IssuePolicy) (*Queue, *mem.Memory) {
	b.Helper()
	m := mem.New()
	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		b.Fatal(err)
	}
	return New(Config{Policy: policy}, m, h, &core.TagSource{}, nil, nil), m
}

// BenchmarkForwardingScan measures byte-wise reconstruction against a
// full window (8 blocks × 32 memory ops).
func BenchmarkForwardingScan(b *testing.B) {
	q, _ := benchQueue(b, core.IssueAggressive)
	ops := make([]OpInfo, 32)
	for i := range ops {
		ops[i] = OpInfo{LSID: int8(i), IsStore: i%2 == 0, Size: 8}
	}
	for seq := int64(0); seq < 8; seq++ {
		q.RegisterBlock(seq, ops)
		for i := 0; i < 32; i += 2 {
			q.StoreUpdate(Key{seq, int8(i)}, uint64(0x1000+8*((seq*16+int64(i))%64)), seq, 0, false, false, nil)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.reconstruct(Key{7, 31}, 0x1000, 8)
	}
}

// BenchmarkViolationCheck measures the younger-load re-check a store
// update performs: 8 blocks, each holding loads that overlap the store.
func BenchmarkViolationCheck(b *testing.B) { benchViolationCheck(b, 8, 1) }

// BenchmarkViolationCheck64 is the deep-window shape: 64 blocks of issued
// loads of which only two (every 32nd) overlap the store, the case the
// load-address signatures skip.
func BenchmarkViolationCheck64(b *testing.B) { benchViolationCheck(b, 64, 32) }

// benchViolationCheck fills blocks blocks with a store at LSID 0 and 31
// issued loads; every sharedEvery-th block's loads overlap block 0's store
// address, the rest sit in a block-private region.
func benchViolationCheck(b *testing.B, blocks, sharedEvery int) {
	q, _ := benchQueue(b, core.IssueAggressive)
	ops := make([]OpInfo, 32)
	for i := range ops {
		ops[i] = OpInfo{LSID: int8(i), IsStore: i == 0, Size: 8}
	}
	for seq := int64(0); seq < int64(blocks); seq++ {
		q.RegisterBlock(seq, ops)
		region := uint64(0x1000)
		if seq%int64(sharedEvery) != 0 {
			region += uint64(seq) * 0x100
		}
		for i := 1; i < 32; i++ {
			q.LoadTry(0, Key{seq, int8(i)}, region+8*uint64(i%8), 0)
		}
	}
	var vs []Violation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternating value prevents silent-store short-circuits from
		// making the measurement trivial.
		vs = q.StoreUpdate(Key{0, 0}, 0x1000, int64(i&1), 0, false, false, vs[:0])
	}
}

// BenchmarkCertifyScan measures a certification sweep that yields
// nothing: seven blocks of address-final stores followed by a block of
// candidate loads parked behind one address-pending store — the
// steady-state cost of a commit wave that has not yet caught up.
func BenchmarkCertifyScan(b *testing.B) { benchCertifyScan(b, 8) }

// BenchmarkCertifyScan64 is the same shape across a 64-block window.
func BenchmarkCertifyScan64(b *testing.B) { benchCertifyScan(b, 64) }

func benchCertifyScan(b *testing.B, blocks int) {
	q, _ := benchQueue(b, core.IssueAggressive)
	stores := make([]OpInfo, 32)
	for i := range stores {
		stores[i] = OpInfo{LSID: int8(i), IsStore: true, Size: 8}
	}
	last := int64(blocks - 1)
	for seq := int64(0); seq < last; seq++ {
		q.RegisterBlock(seq, stores)
		for i := 0; i < 32; i++ {
			// Address committed, data pending: stays an alias candidate.
			q.StoreUpdate(Key{seq, int8(i)}, uint64(0x1000+8*(seq*32+int64(i))), 1, 0, true, false, nil)
		}
	}
	mixed := make([]OpInfo, 32)
	for i := range mixed {
		mixed[i] = OpInfo{LSID: int8(i), IsStore: i == 0, Size: 8}
	}
	q.RegisterBlock(last, mixed)
	q.StoreUpdate(Key{last, 0}, 0x80000, 1, 0, false, false, nil) // address never final
	for i := 1; i < 32; i++ {
		k := Key{last, int8(i)}
		q.LoadTry(0, k, uint64(0x90000+8*int64(i)), 0)
		q.LoadInputsCommitted(k)
	}
	buf := make([]CertifiedLoad, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.certDirty = true // as a store commit would
		buf = q.TakeCertifiable(buf[:0])
		if len(buf) != 0 {
			b.Fatal("no load should certify past the pending store")
		}
	}
}

// BenchmarkParkedLoads measures the per-cycle parked-load scan with 232
// store-set-parked loads waiting on one never-executing store, while an
// unrelated store re-executes every iteration (dirtying the queue).
func BenchmarkParkedLoads(b *testing.B) {
	ss := predictor.MustNew(predictor.DefaultConfig())
	loadPC, waitPC, otherPC := predictor.MakePC(1, 1), predictor.MakePC(0, 0), predictor.MakePC(2, 0)
	ss.Violation(loadPC, waitPC)
	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		b.Fatal(err)
	}
	q := New(Config{Policy: core.IssueStoreSet}, mem.New(), h, &core.TagSource{}, ss, nil)
	q.RegisterBlock(0, []OpInfo{{LSID: 0, IsStore: true, Size: 8, PC: waitPC}})
	ops := make([]OpInfo, 30)
	ops[0] = OpInfo{LSID: 0, IsStore: true, Size: 8, PC: otherPC}
	for i := 1; i < len(ops); i++ {
		ops[i] = OpInfo{LSID: int8(i), Size: 8, PC: loadPC}
	}
	const blocks = 8
	for seq := int64(1); seq <= blocks; seq++ {
		q.RegisterBlock(seq, ops)
		for i := 1; i < len(ops); i++ {
			if r := q.LoadTry(0, Key{seq, int8(i)}, uint64(0x2000+0x100*seq+8*int64(i)), 0); r.Reason != DeferPolicy {
				b.Fatalf("load %d.%d not parked on its store set: %+v", seq, i, r)
			}
		}
	}
	var vs []Violation
	var ready []ReadyLoad
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs = q.StoreUpdate(Key{blocks, 0}, 0x9000, int64(i&1), 0, false, false, vs[:0])
		if ready = q.TakeReady(int64(i), ready[:0]); len(ready) != 0 {
			b.Fatal("no parked load should issue")
		}
	}
}

// BenchmarkAliasSearch measures one older-store safety walk in the case
// that certifies: a full window of address-final, data-pending stores, so
// every block's occupancy mask survives the word-level filters and each
// store must be proven non-overlapping address-by-address.
func BenchmarkAliasSearch(b *testing.B) {
	q, _ := benchQueue(b, core.IssueAggressive)
	ops := make([]OpInfo, 32)
	for i := range ops {
		ops[i] = OpInfo{LSID: int8(i), IsStore: i < 31, Size: 8}
	}
	for seq := int64(0); seq < 8; seq++ {
		q.RegisterBlock(seq, ops)
		for i := 0; i < 31; i++ {
			q.StoreUpdate(Key{seq, int8(i)}, uint64(0x1000+8*(seq*32+int64(i))), 1, 0, true, false, nil)
		}
	}
	load := Key{7, 31}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.olderStoresSafe(load, 0x9000, 8) {
			b.Fatal("disjoint load should be safe")
		}
	}
}

// BenchmarkLoadIssue measures the end-to-end load path (policy check,
// reconstruction, cache timing).
func BenchmarkLoadIssue(b *testing.B) {
	q, m := benchQueue(b, core.IssueAggressive)
	m.Write(0x2000, 7, 8)
	ops := make([]OpInfo, 1)
	ops[0] = OpInfo{LSID: 0, Size: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i)
		q.RegisterBlock(seq, ops)
		q.LoadTry(int64(i), Key{seq, 0}, 0x2000, 0)
		q.Drain(seq)
	}
}

package account

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/predictor"
)

// refStream drives a Forensics and a core.WaveStats beside their map-based
// references with one randomized repair stream that keeps the machine's
// invariants: block seqs live in a window of at most frames blocks, commit
// retires the oldest, a flush truncates the window so the next maps
// refetch the same seqs, and repair tags come from one increasing source.
type refStream struct {
	t   *testing.T
	rng *rand.Rand

	f  *Forensics
	w  *core.WaveStats
	rf *refForensics
	rw *refWaveStats

	frames     int
	head, tail int64 // live block seqs are [head, tail)
	last       core.Tag
	tags       []core.Tag // every tag handed out, ascending
	reexecs    int64

	// Coverage: gen[seq] counts the times seq was squashed; a repair of a
	// dynamic load last repaired under an older gen is a repair after a
	// flush refetch.
	gen            map[int64]int
	repairedAt     map[dynLoad]int
	refetchRepairs int
}

func newRefStream(t *testing.T, seed int64) *refStream {
	rng := rand.New(rand.NewSource(seed))
	frames := []int{2, 3, 5, 8, 64}[rng.Intn(5)]
	// Accounting may start after some tags were allocated: those can still
	// show up as parents and re-execution tags.
	var pre core.Tag
	if rng.Intn(3) == 0 {
		pre = core.Tag(1 + rng.Intn(40))
	}
	s := &refStream{
		t: t, rng: rng,
		w: core.NewWaveStats(), rw: newRefWaveStats(),
		f: NewForensics(frames, pre+1), rf: newRefForensics(),
		frames: frames, last: pre,
		gen: map[int64]int{}, repairedAt: map[dynLoad]int{},
	}
	for tag := core.Tag(1); tag <= pre; tag++ {
		s.tags = append(s.tags, tag)
	}
	return s
}

// nextTag allocates a repair tag: usually the next one, sometimes after a
// gap (tags other repairs or schemes consumed).
func (s *refStream) nextTag() core.Tag {
	s.last++
	if s.rng.Intn(6) == 0 {
		s.last += core.Tag(s.rng.Intn(300))
	}
	s.tags = append(s.tags, s.last)
	return s.last
}

// anyTag picks a tag the stream may mention: zero, one handed out, or one
// inside a gap that was never handed out.
func (s *refStream) anyTag() core.Tag {
	switch r := s.rng.Intn(10); {
	case r == 0 || len(s.tags) == 0:
		return 0
	case r == 1:
		return core.Tag(s.rng.Int63n(int64(s.last) + 1))
	case r < 6:
		// Recent tags dominate, as in a real wave storm.
		return s.tags[len(s.tags)-1-s.rng.Intn(min(len(s.tags), 4))]
	default:
		return s.tags[s.rng.Intn(len(s.tags))]
	}
}

// squashTo truncates the window to [head, tail).
func (s *refStream) squashTo(tail int64) {
	for seq := tail; seq < s.tail; seq++ {
		s.gen[seq]++
	}
	s.tail = tail
}

func (s *refStream) repair() {
	seq := s.head + s.rng.Int63n(s.tail-s.head)
	lsid := s.rng.Intn(3)
	if s.rng.Intn(4) == 0 {
		lsid = s.rng.Intn(isa.MaxMemOps)
	}
	loadPC := predictor.MakePC(s.rng.Intn(6), lsid)
	storePC := predictor.MakePC(10+s.rng.Intn(5), s.rng.Intn(3))
	kind := EventKind(s.rng.Intn(3))
	tag := s.nextTag()
	parent, cost := s.anyTag(), s.rng.Int63n(500)
	switch kind {
	case EventVP:
		storePC, parent, cost = 0, 0, 0
		s.w.WaveStarted(tag)
		s.rw.WaveStarted(tag)
	case EventWave:
		s.w.WaveStarted(tag)
		s.rw.WaveStarted(tag)
	}
	s.f.Record(kind, seq, lsid, loadPC, storePC, tag, parent, cost)
	s.rf.Record(kind, seq, lsid, loadPC, storePC, tag, parent, cost)
	dl := dynLoad{seq: seq, lsid: lsid}
	if g, ok := s.repairedAt[dl]; ok && g != s.gen[seq] {
		s.refetchRepairs++
	}
	s.repairedAt[dl] = s.gen[seq]
	if kind == EventFlush {
		// The flush squashes the load's block and everything younger;
		// refetch maps the same seqs again.
		s.squashTo(seq)
	}
}

func (s *refStream) step() {
	switch r := s.rng.Intn(20); {
	case r < 4:
		if s.tail-s.head < int64(s.frames) {
			s.tail++
		}
	case r < 6:
		if s.head < s.tail {
			s.head++
		}
	case r < 7:
		if s.head < s.tail {
			s.squashTo(s.head + s.rng.Int63n(s.tail-s.head))
		}
	case r < 12:
		if s.head < s.tail {
			s.repair()
		}
	case r < 13:
		// The machine never starts tag zero, but the accounting must
		// still agree if it did.
		if s.rng.Intn(50) == 0 {
			s.w.WaveStarted(0)
			s.rw.WaveStarted(0)
		}
	default:
		tag := s.anyTag()
		s.w.Reexecuted(tag)
		s.rw.Reexecuted(tag)
		s.reexecs++
	}
}

func (s *refStream) check(ctx string) {
	t := s.t
	t.Helper()
	if s.w.Waves != s.rw.Waves || s.w.Reexecs != s.rw.Reexecs {
		t.Fatalf("%s: waves/reexecs %d/%d, reference %d/%d", ctx, s.w.Waves, s.w.Reexecs, s.rw.Waves, s.rw.Reexecs)
	}
	for tag := core.Tag(0); tag <= s.last+2; tag++ {
		if got, want := s.w.WaveSize(tag), s.rw.WaveSize(tag); got != want {
			t.Fatalf("%s: WaveSize(%d) = %d, reference %d", ctx, tag, got, want)
		}
	}
	if got, want := s.w.SizeHist(), s.rw.SizeHist(); *got != *want {
		t.Fatalf("%s: SizeHist %v, reference %v", ctx, got, want)
	}
	if s.f.Events() != len(s.rf.events) {
		t.Fatalf("%s: %d events, reference %d", ctx, s.f.Events(), len(s.rf.events))
	}
	for _, top := range []int{16, 0, 2} {
		got := s.f.Summarize(s.w.WaveSize, s.reexecs, top)
		want := s.rf.Summarize(s.rw.WaveSize, s.reexecs, top)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Summarize(top %d)\n got %+v\nwant %+v", ctx, top, got, want)
		}
	}
}

// TestForensicsMatchesReference checks the dense, copy-free audit against
// the map-based reference on 300 fixed-seed streams covering dense and
// sparse tags, tag zero, parent chains (including parents from before
// accounting began), repeated repairs of one dynamic load across flush
// refetches, VP events, and re-executions under started, unstarted and
// zero tags.
func TestForensicsMatchesReference(t *testing.T) {
	var superseded, refetchRepairs, vp, depth2 int64
	for seed := int64(1); seed <= 300; seed++ {
		s := newRefStream(t, seed)
		n := 200 + s.rng.Intn(3000)
		for i := 0; i < n; i++ {
			s.step()
			if i%500 == 499 {
				s.check(fmt.Sprintf("seed %d, op %d", seed, i))
			}
		}
		s.check(fmt.Sprintf("seed %d", seed))
		for _, ev := range s.rf.events {
			if ev.superseded {
				superseded++
			}
			if ev.kind == EventVP {
				vp++
			}
			if ev.depth > 1 {
				depth2++
			}
		}
		refetchRepairs += int64(s.refetchRepairs)
	}
	if superseded == 0 || refetchRepairs == 0 || vp == 0 || depth2 == 0 {
		t.Errorf("streams miss a case: %d superseded, %d refetch repairs, %d VP events, %d chained waves",
			superseded, refetchRepairs, vp, depth2)
	}
}

// TestRecoveryBookkeepingAllocs pins the copy-free growth: a 100k-repair
// stream (each repair starts a wave, is audited, and re-executes two
// instructions under its tag) allocates one segment per doubling of each
// log plus the supersede table, about three dozen objects in all, where
// per-tag maps and a growing slice made hundreds of thousands.
func TestRecoveryBookkeepingAllocs(t *testing.T) {
	const repairs = 100_000
	var f *Forensics
	var w *core.WaveStats
	allocs := testing.AllocsPerRun(1, func() {
		f = NewForensics(8, 1)
		w = core.NewWaveStats()
		for i := 0; i < repairs; i++ {
			tag := core.Tag(i + 1)
			seq := int64(i / 4)
			w.WaveStarted(tag)
			f.Record(EventWave, seq, i%4, predictor.MakePC(3, i%4), predictor.MakePC(2, 0), tag, tag-1, 10)
			w.Reexecuted(tag)
			w.Reexecuted(tag)
		}
	})
	s := f.Summarize(w.WaveSize, w.Reexecs, 16)
	if s.WaveEvents != repairs || s.WaveReexecs != 2*repairs || s.MaxDepth != repairs {
		t.Fatalf("stream summary: %+v", s)
	}
	// 3 logs × 11 segments (64·(2^11 − 1) ≥ 100k), the supersede table and
	// the two constructors: 36.
	if allocs > 40 {
		t.Errorf("100k repairs made %v allocations, want at most 40", allocs)
	}
	// Without repairs the bookkeeping allocates nothing beyond itself.
	f, w = NewForensics(8, 1), core.NewWaveStats()
	if a := testing.AllocsPerRun(100, func() {
		_ = w.WaveSize(5)
		_ = f.Events()
	}); a != 0 {
		t.Errorf("idle bookkeeping allocates %v objects", a)
	}
}

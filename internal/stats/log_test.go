package stats

import "testing"

// TestLogSegments pins the segment layout: index boundaries land exactly
// on the 64·(2^k − 1) segment starts, and every index maps to a distinct,
// in-range slot.
func TestLogSegments(t *testing.T) {
	for _, c := range []struct{ i, seg, off int }{
		{0, 0, 0}, {63, 0, 63}, {64, 1, 0}, {191, 1, 127}, {192, 2, 0}, {447, 2, 255}, {448, 3, 0},
	} {
		if seg, off := logLocate(c.i); seg != c.seg || off != c.off {
			t.Errorf("logLocate(%d) = (%d, %d), want (%d, %d)", c.i, seg, off, c.seg, c.off)
		}
	}
	prevSeg, prevOff := 0, -1
	for i := 0; i < 1<<16; i++ {
		seg, off := logLocate(i)
		if seg == prevSeg && off != prevOff+1 || seg != prevSeg && (seg != prevSeg+1 || off != 0) || off >= logFirst<<seg {
			t.Fatalf("logLocate(%d) = (%d, %d) after (%d, %d)", i, seg, off, prevSeg, prevOff)
		}
		prevSeg, prevOff = seg, off
	}
}

// TestLogAppendExtend checks Append and Extend against a plain slice and
// that growth never moves an element.
func TestLogAppendExtend(t *testing.T) {
	var l Log[int]
	var ref []int
	first := (*int)(nil)
	for i := 0; i < 5000; i++ {
		if i%97 == 0 {
			n := len(ref) + i%300
			*l.Extend(n) = -i
			for len(ref) < n {
				ref = append(ref, 0)
			}
			ref = append(ref, -i)
		}
		l.Append(i)
		ref = append(ref, i)
		if first == nil {
			first = l.At(0)
		}
	}
	if p := l.Extend(10); p != l.At(10) || l.Len() != len(ref) {
		t.Error("Extend inside the Log must not grow it")
	}
	if l.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(ref))
	}
	for i, v := range ref {
		if got := *l.At(i); got != v {
			t.Fatalf("At(%d) = %d, want %d", i, got, v)
		}
	}
	if first != l.At(0) {
		t.Error("growth moved element 0")
	}
}

// TestLogZeroAllocates: an empty Log costs nothing, and a grown one
// allocates one segment per doubling.
func TestLogZeroAllocates(t *testing.T) {
	var l Log[int64]
	if a := testing.AllocsPerRun(100, func() { _ = l.Len() }); a != 0 {
		t.Errorf("empty Log allocates %v", a)
	}
	a := testing.AllocsPerRun(1, func() {
		var l Log[int64]
		for i := 0; i < 64*(1<<10-1); i++ {
			l.Append(int64(i))
		}
	})
	if a != 10 {
		t.Errorf("64·(2^10 − 1) appends made %v allocations, want 10 (one per segment)", a)
	}
}

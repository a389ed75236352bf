package stats

import "math/bits"

// Log is an append-only sequence stored in geometrically growing segments
// of 64, 128, 256, … elements.  Growth allocates the next segment and never
// copies, so appends are amortized O(1) with no data moved, pointers
// returned by At stay valid for the Log's lifetime, and the zero Log is
// empty and allocates nothing until it first grows.  Besides event logs it backs
// dense tables keyed by a counter (wave tags): Extend grows the table to
// cover a new key with zero values.
type Log[T any] struct {
	segs [logSegments][]T
	n    int
}

const (
	// logFirst is the first segment's length; segment k holds logFirst<<k
	// elements, starting at index logFirst*(2^k − 1).
	logFirst = 64
	// logSegments bounds the segment count: 64·(2^48 − 1) elements is far
	// beyond any addressable Log.
	logSegments = 48
)

// logLocate maps index i to its segment and the offset within it.
func logLocate(i int) (seg, off int) {
	seg = bits.Len(uint(i)/logFirst+1) - 1
	return seg, i - logFirst*(1<<seg-1)
}

// Len returns the number of elements.
func (l *Log[T]) Len() int { return l.n }

// At returns a pointer to element i.
func (l *Log[T]) At(i int) *T {
	if uint(i) >= uint(l.n) {
		panic("stats: Log index out of range")
	}
	seg, off := logLocate(i)
	return &l.segs[seg][off]
}

// Append adds v at index Len().
func (l *Log[T]) Append(v T) {
	seg, off := logLocate(l.n)
	if l.segs[seg] == nil {
		l.segs[seg] = make([]T, logFirst<<seg)
	}
	l.segs[seg][off] = v
	l.n++
}

// Extend returns a pointer to element i like At, first growing the Log
// with zero elements to cover i if it is that short.
func (l *Log[T]) Extend(i int) *T {
	for l.n <= i {
		seg, off := logLocate(l.n)
		if l.segs[seg] == nil {
			l.segs[seg] = make([]T, logFirst<<seg)
		}
		l.n = min(i+1, l.n+len(l.segs[seg])-off)
	}
	return l.At(i)
}

package deque

import (
	"testing"
	"unsafe"
)

// span is the byte range [off, end) of one group of fields inside a struct.
type span struct{ off, end uintptr }

// checkLayout asserts that the owner-written fields sit at least padBytes
// away from the thief-written ones and that at least padBytes of trailing
// padding follow the last field, so a field reshuffle cannot silently
// bring back false sharing with thieves or with the next deque in memory.
func checkLayout(t *testing.T, name string, thief, owner span, last, size uintptr) {
	t.Helper()
	lo, hi := thief, owner
	if owner.off < thief.off {
		lo, hi = owner, thief
	}
	if hi.off < lo.end || hi.off-lo.end < padBytes {
		t.Errorf("%s: owner [%d,%d) and thief [%d,%d) words only %d bytes apart, want >= %d",
			name, owner.off, owner.end, thief.off, thief.end, int(hi.off)-int(lo.end), padBytes)
	}
	if tail := size - last; tail < padBytes {
		t.Errorf("%s: %d bytes of trailing padding, want >= %d", name, tail, padBytes)
	}
}

func TestDequeLayout(t *testing.T) {
	var d Deque[int]
	checkLayout(t, "Deque",
		span{unsafe.Offsetof(d.head), unsafe.Offsetof(d.lock) + unsafe.Sizeof(d.lock)},
		span{unsafe.Offsetof(d.tail), unsafe.Offsetof(d.buf) + unsafe.Sizeof(d.buf)},
		unsafe.Offsetof(d.buf)+unsafe.Sizeof(d.buf), unsafe.Sizeof(d))
}

func TestChaseLevLayout(t *testing.T) {
	var d ChaseLev[int]
	checkLayout(t, "ChaseLev",
		span{unsafe.Offsetof(d.top), unsafe.Offsetof(d.top) + unsafe.Sizeof(d.top)},
		span{unsafe.Offsetof(d.bottom), unsafe.Offsetof(d.free) + unsafe.Sizeof(d.free)},
		unsafe.Offsetof(d.free)+unsafe.Sizeof(d.free), unsafe.Sizeof(d))
}

func TestRelaxedLayout(t *testing.T) {
	var d Relaxed[relItem]
	checkLayout(t, "Relaxed",
		span{unsafe.Offsetof(d.anchor), unsafe.Offsetof(d.ring) + unsafe.Sizeof(d.ring)},
		span{unsafe.Offsetof(d.priv), unsafe.Offsetof(d.sincePub) + unsafe.Sizeof(d.sincePub)},
		unsafe.Offsetof(d.ring)+unsafe.Sizeof(d.ring), unsafe.Sizeof(d))
}

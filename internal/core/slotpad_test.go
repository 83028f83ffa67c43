package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestWorkerLayout pins the worker slot's cache-line layout: the words
// thieves read, the owner-written words and the remote-free list other
// slots write are each at least slotPad bytes apart, and slotPad bytes of
// trailing padding keep the next slot's allocation away. A field reshuffle
// that brings the sharing back fails here.
func TestWorkerLayout(t *testing.T) {
	var w worker
	end := func(off, size uintptr) uintptr { return off + size }
	shared := end(unsafe.Offsetof(w.deque), unsafe.Sizeof(w.deque))
	ownerOff := unsafe.Offsetof(w.rng)
	arena := unsafe.Offsetof(w.arena)
	ownerEnd := arena + end(unsafe.Offsetof(w.arena.n), unsafe.Sizeof(w.arena.n))
	remoteOff := arena + unsafe.Offsetof(w.arena.remote)
	remoteEnd := arena + end(unsafe.Offsetof(w.arena.remoteN), unsafe.Sizeof(w.arena.remoteN))
	for _, c := range []struct {
		name   string
		lo, hi uintptr
	}{
		{"thief-read -> owner", shared, ownerOff},
		{"owner -> remote-free", ownerEnd, remoteOff},
		{"remote-free -> end", remoteEnd, unsafe.Sizeof(w)},
	} {
		if c.hi < c.lo || c.hi-c.lo < slotPad {
			t.Errorf("worker %s: %d bytes apart, want >= %d", c.name, int(c.hi)-int(c.lo), slotPad)
		}
	}
}

// TestCounterShardFollowsSlot drives a root through a suspension that
// resumes it on a different slot: its only child is stolen by the other
// slot and finishes last, after the root has suspended, so the child's
// slot is the one handed back. The resumed root must then count on that
// slot's shard, not on the shard of the slot it started on, which now
// belongs to the replacement thief.
func TestCounterShardFollowsSlot(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	var started atomic.Bool
	var from, to int
	var rebound bool
	rt.Run(func(w *W) {
		var fr Frame
		w.Init(&fr)
		w.Fork(&fr, func(*W) {
			started.Store(true)
			for fr.count.Load()&frameSuspended == 0 {
				runtime.Gosched()
			}
		})
		for !started.Load() {
			runtime.Gosched()
		}
		from = w.slot.id
		w.Join(&fr)
		to = w.slot.id
		rebound = w.stats == w.rt.shard(w.slot.id)
	})
	if from == to {
		t.Fatalf("root resumed on slot %d, its starting slot; the test needs a migration", to)
	}
	if !rebound {
		t.Errorf("root resumed on slot %d but still counts on another shard (started on slot %d)", to, from)
	}
}

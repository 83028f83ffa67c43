package deque

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// relItem is the test element type for Relaxed: an int payload plus the
// claim stamped at publication, mirroring how the scheduler's task type
// satisfies Stampable.
type relItem struct {
	v     int
	claim *Claim
}

func (it relItem) WithClaim(c *Claim) relItem { it.claim = c; return it }

// take wins the item's claim; items never published carry a nil claim,
// which Acquire treats as trivially won.
func (it relItem) take() bool { return it.claim.Acquire() }

var _ interface {
	dequeAPI[relItem]
	StealIf(func(relItem) bool) (relItem, bool)
} = (*Relaxed[relItem])(nil)

// TestRelaxedOwnerLIFO pins the owner-only sequential semantics: with no
// thieves, Push/Pop must behave exactly like the THE deque's LIFO order
// across the private/published boundary — this is what keeps P=1
// scheduling identical across deque kinds.
func TestRelaxedOwnerLIFO(t *testing.T) {
	prop := func(ops []uint8) bool {
		a := &Deque[int]{}
		b := &Relaxed[relItem]{}
		next := 0
		for _, op := range ops {
			if op%3 != 0 { // bias toward pushes so the window populates
				a.Push(next)
				b.Push(relItem{v: next})
				next++
				continue
			}
			av, aok := a.Pop()
			bv, bok := b.Pop()
			if aok != bok || (aok && av != bv.v) {
				return false
			}
			if bok && !bv.take() {
				return false // no thieves: the owner must win every claim
			}
		}
		// Drain: orders must keep matching to the end.
		for {
			av, aok := a.Pop()
			bv, bok := b.Pop()
			if aok != bok || (aok && av != bv.v) {
				return false
			}
			if !aok {
				return true
			}
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestRelaxedPublication pins the lazy-publication policy: a single
// pending task stays private (Len 0, no allocation-bearing publication),
// an empty window is refilled as soon as a surplus exists (the starvation
// rule), further publication happens oldest-first but only from backlog
// deeper than the private reserve (the hysteresis rule), and thieves
// draining the window makes the next push refill it.
func TestRelaxedPublication(t *testing.T) {
	d := &Relaxed[relItem]{}
	d.Push(relItem{v: 0})
	if d.Len() != 0 || d.Unpublished() != 1 {
		t.Fatalf("after one push: Len=%d Unpublished=%d, want 0,1", d.Len(), d.Unpublished())
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("stole the owner's single private task")
	}
	d.Push(relItem{v: 1})
	if d.Len() != 1 {
		t.Fatalf("second push left an empty window: Len=%d, want 1 (starvation rule)", d.Len())
	}
	for i := 2; i < 10; i++ {
		d.Push(relItem{v: i})
	}
	// 10 pushes total: the window holds {0} from the starvation refill plus
	// one backlog publication once the private side exceeded its reserve.
	if d.Len() != 2 || d.Unpublished() != relPrivateReserve {
		t.Fatalf("after 10 pushes: Len=%d Unpublished=%d, want 2,%d",
			d.Len(), d.Unpublished(), relPrivateReserve)
	}
	// Oldest-first publication: thieves must see 0, 1, ...
	for i := 0; i < 2; i++ {
		v, ok := d.Steal()
		if !ok || v.v != i || !v.take() {
			t.Fatalf("steal %d = (%v,%v), want value %d and a fresh claim", i, v.v, ok, i)
		}
	}
	// The window is empty again; the next push refills it from the private
	// side even though the backlog is within the reserve.
	d.Push(relItem{v: 10})
	if d.Len() == 0 {
		t.Fatal("push onto a drained window did not republish")
	}
}

// TestRelaxedStealIf mirrors the THE/ChaseLev StealIf semantics: a
// rejected candidate leaves the deque untouched and only the top
// (oldest published) entry is ever offered.
func TestRelaxedStealIf(t *testing.T) {
	d := &Relaxed[relItem]{}
	if _, ok := d.StealIf(func(relItem) bool { return true }); ok {
		t.Fatal("StealIf on empty deque succeeded")
	}
	for i := 0; i < 10; i++ {
		d.Push(relItem{v: i})
	}
	if _, ok := d.StealIf(func(it relItem) bool { return it.v > 100 }); ok {
		t.Fatal("StealIf stole a rejected entry")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d after rejection, want 2 (starvation refill + one backlog publication)", d.Len())
	}
	v, ok := d.StealIf(func(it relItem) bool { return it.v == 0 })
	if !ok || v.v != 0 {
		t.Fatalf("StealIf = %d,%v, want 0,true", v.v, ok)
	}
	// The next top is 1; a predicate matching only 2 must not skip it.
	if _, ok := d.StealIf(func(it relItem) bool { return it.v == 2 }); ok {
		t.Fatal("StealIf skipped past the top entry")
	}
}

// TestRelaxedConcurrentExactlyOnce is the multiplicity contract under real
// concurrency: an owner running a push/pop mix against racing thieves,
// with every consumer filtering through the claim. Exactly-once
// consumption must hold even though raw extractions may exceed the push
// count; the duplicate count is reported and sanity-bounded.
func TestRelaxedConcurrentExactlyOnce(t *testing.T) {
	const total = 50000
	d := &Relaxed[relItem]{}
	seen := make([]atomic.Int32, total)
	var consumed, dups atomic.Int64
	record := func(it relItem) {
		if !it.take() {
			dups.Add(1)
			return
		}
		if seen[it.v].Add(1) != 1 {
			t.Errorf("value %d claimed twice", it.v)
		}
		consumed.Add(1)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					record(v)
					continue
				}
				select {
				case <-stop:
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						record(v)
					}
				default:
				}
			}
		}()
	}

	for v := 0; v < total; {
		for i := 0; i < 1+v%7 && v < total; i++ {
			d.Push(relItem{v: v})
			v++
		}
		if v%3 == 0 {
			if got, ok := d.Pop(); ok {
				record(got)
			}
		}
	}
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		record(v)
	}
	close(stop)
	wg.Wait()
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		record(v)
	}
	if got := consumed.Load(); got != total {
		t.Errorf("claimed %d values, want %d (no loss)", got, total)
	}
	// Duplicates are the price of the fence-free anchor; they must stay a
	// vanishing fraction of the traffic, not a livelock.
	if dd := dups.Load(); dd > total {
		t.Errorf("%d duplicate extractions over %d pushes — multiplicity unbounded?", dd, total)
	} else {
		t.Logf("relaxed deque: %d duplicate extractions over %d pushes", dd, total)
	}
}

// TestRelaxedAnchorPacking pins the (head, size, tag) bit layout and its
// wrap behaviour: fields round-trip below their widths and wrap cleanly
// at them, and the ring capacity divides the head modulus so slot
// indexing is wrap-consistent.
func TestRelaxedAnchorPacking(t *testing.T) {
	cases := []struct{ h, s, g uint64 }{
		{0, 0, 0},
		{1, 2, 3},
		{1<<relHeadBits - 1, 1<<relSizeBits - 1, 1<<relTagBits - 1},
		{12345, relPublishGoal, 998877},
	}
	for _, c := range cases {
		h, s, g := unpackAnchor(packAnchor(c.h, c.s, c.g))
		if h != c.h || s != c.s || g != c.g {
			t.Errorf("pack/unpack(%d,%d,%d) = (%d,%d,%d)", c.h, c.s, c.g, h, s, g)
		}
	}
	// Wrap: head and tag are modular counters.
	h, _, g := unpackAnchor(packAnchor(1<<relHeadBits, 0, 1<<relTagBits))
	if h != 0 || g != 0 {
		t.Errorf("wrapped head/tag = %d,%d, want 0,0", h, g)
	}
	if (1<<relHeadBits)%relRingCap != 0 {
		t.Errorf("ring capacity %d does not divide the head modulus", relRingCap)
	}
	if relPublishGoal >= relRingCap {
		t.Errorf("publish goal %d must stay below ring capacity %d", relPublishGoal, relRingCap)
	}
}

// TestClaimSemantics pins the claim contract: one winner, nil is
// trivially won.
func TestClaimSemantics(t *testing.T) {
	var c Claim
	if !c.Acquire() {
		t.Fatal("fresh claim not acquired")
	}
	if c.Acquire() {
		t.Fatal("claim acquired twice")
	}
	var nilClaim *Claim
	if !nilClaim.Acquire() {
		t.Fatal("nil claim must be trivially won")
	}
}

// BenchmarkRelaxedPushPop is the tight fork/join loop: the single pending
// entry stays private, so each iteration is plain loads and stores with
// zero atomic operations — the fence-free fast path.
func BenchmarkRelaxedPushPop(b *testing.B) {
	d := &Relaxed[relItem]{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(relItem{v: i})
		d.Pop()
	}
}

// BenchmarkRelaxedPushPopDeep models a deep fork tree: the deque carries a
// standing backlog, so every Push holds a surplus and pays the anchor poll
// in topUp (window already full → no publication).
func BenchmarkRelaxedPushPopDeep(b *testing.B) {
	d := &Relaxed[relItem]{}
	for i := 0; i < 32; i++ {
		d.Push(relItem{v: -i})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(relItem{v: i})
		d.Pop()
	}
}

// BenchmarkTHEPushPopDeep is the THE-deque comparison point for the deep
// variant above.
func BenchmarkTHEPushPopDeep(b *testing.B) {
	d := &Deque[int]{}
	for i := 0; i < 32; i++ {
		d.Push(-i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Pop()
	}
}

// TestRelaxedPending pins the quiescence count: Pending is the private
// backlog plus the window entries whose claim nobody has won. An entry
// left in the window after its claim was won — a task that ran, brought
// back by the owner's blind anchor store — is not pending; an unclaimed
// one is, however it got there.
func TestRelaxedPending(t *testing.T) {
	d := &Relaxed[relItem]{}
	for i := 0; i < 10; i++ {
		d.Push(relItem{v: i})
	}
	if d.Len() != 2 || d.Pending() != 10 {
		t.Fatalf("after 10 pushes: Len=%d Pending=%d, want 2,10", d.Len(), d.Pending())
	}
	// Win the oldest window entry's claim without extracting it: it stays
	// in the window, as a resurrected entry does.
	if _, ok := d.StealIf(func(it relItem) bool { return !it.take() }); ok {
		t.Fatal("StealIf extracted an entry its predicate rejected")
	}
	if d.Len() != 2 || d.Pending() != 9 {
		t.Fatalf("after claiming one window entry: Len=%d Pending=%d, want 2,9", d.Len(), d.Pending())
	}
}

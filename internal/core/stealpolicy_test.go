package core

import (
	"runtime"
	"testing"
)

// TestStealPoliciesParfib is the core-level correctness smoke for every
// policy × deque pair: the victim-selection order and the StealHalf loot
// protocol must not change the computed value, and the loot accounting
// must keep the Steals/TaskStart identity the trace oracle relies on
// (each loose task counts exactly one steal when claimed).
func TestStealPoliciesParfib(t *testing.T) {
	const n = 18
	want := fibSerial(n)
	for _, pol := range StealPolicies() {
		for _, dk := range DequeKinds() {
			got, stats := runParfib(t, Config{Workers: 4, Deque: dk, StealPolicy: pol}, n)
			if got != want {
				t.Errorf("%s/%s: parfib(%d) = %d, want %d", pol, dk, n, got, want)
			}
			if stats.Forks == 0 {
				t.Errorf("%s/%s: no forks recorded", pol, dk)
			}
		}
	}
}

// TestLastVictimDecay pins the affinity-decay contract: a stale anchor
// survives exactly victimPatience-1 consecutive empty sweeps and is cleared
// on the next, rather than being dropped on the first failed probe. The
// test drives rt.steal directly from the root worker against an otherwise
// idle runtime, so every sweep fails by construction.
func TestLastVictimDecay(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2, StealPolicy: StealLastVictim})
	rt.Run(func(w *W) {
		w.slot.lastVictim = 1 // pretend slot 1 just fed us
		w.slot.victimMisses = 0
		for i := 1; i < victimPatience; i++ {
			if _, ok := rt.steal(w, nil); ok {
				t.Fatal("stole from an idle runtime")
			}
			if w.slot.lastVictim != 1 {
				t.Fatalf("affinity dropped after %d empty sweep(s); patience is %d", i, victimPatience)
			}
		}
		if _, ok := rt.steal(w, nil); ok {
			t.Fatal("stole from an idle runtime")
		}
		if w.slot.lastVictim != -1 {
			t.Errorf("affinity retained after %d empty sweeps; want cleared", victimPatience)
		}
		if w.slot.victimMisses != 0 {
			t.Errorf("victimMisses = %d after decay, want 0", w.slot.victimMisses)
		}
	})
}

// TestLeapfrogArenaRecycling is the regression fence for the blanket
// arena exclusion StrategyLeapfrog used to carry: Scratch blocks must
// recycle under the leapfrog join discipline exactly as they do under
// Fibril — acquires balance releases, and a warmed runtime's second run
// stays below one allocation per fork on every deque kind (leapfrog never
// suspends, so Chase-Lev owner recycling stays off and StealIf remains
// safe; the arena must carry the zero-alloc load alone).
func TestLeapfrogArenaRecycling(t *testing.T) {
	const n = 22
	want := fibSerial(n)
	for _, dk := range DequeKinds() {
		t.Run(dk.String(), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: 4, Strategy: StrategyLeapfrog, Deque: dk})
			var out int64
			rt.Run(func(w *W) { out = gateFib(w, n) }) // warm
			st0 := rt.Stats()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			rt.Run(func(w *W) { out = gateFib(w, n) })
			runtime.ReadMemStats(&m1)
			st := rt.Stats()
			if out != want {
				t.Fatalf("gateFib(%d) = %d, want %d", n, out, want)
			}
			ops := st.Forks - st0.Forks
			got := int64(m1.Mallocs - m0.Mallocs)
			// Chase-Lev owner recycling is deliberately off under leapfrog
			// (StealIf dereferences nodes before the CAS), so it pays one
			// boxed node per push; the other kinds must stay sub-1/fork.
			budget := ops
			if dk == DequeChaseLev {
				budget = 2 * ops
			}
			t.Logf("%s: %d allocs over %d forks", dk, got, ops)
			if got >= budget {
				t.Errorf("%d allocs >= budget %d over %d forks: leapfrog is not recycling Scratch blocks", got, budget, ops)
			}
			if st.ArenaAcquires == 0 {
				t.Fatal("no arena acquires recorded")
			}
			if st.ArenaAcquires != st.ArenaReleases {
				t.Errorf("ArenaAcquires=%d != ArenaReleases=%d", st.ArenaAcquires, st.ArenaReleases)
			}
		})
	}
}

// TestInitParentLinkOnlyUnderLeapfrog pins where Init records ancestry: a
// frame declared inside a forked child links to the child's parent frame
// under StrategyLeapfrog, whose join is the link's only reader, and stays
// nil under every other strategy.
func TestInitParentLinkOnlyUnderLeapfrog(t *testing.T) {
	for _, strat := range Strategies() {
		rt := NewRuntime(Config{Workers: 1, Strategy: strat})
		var outer Frame
		var got *Frame
		rt.Run(func(w *W) {
			w.Init(&outer)
			w.Fork(&outer, func(w *W) {
				var inner Frame
				w.Init(&inner)
				got = inner.parent.Load()
			})
			w.Join(&outer)
		})
		var want *Frame
		if strat == StrategyLeapfrog {
			want = &outer
		}
		if got != want {
			t.Errorf("%v: inner frame's parent = %p, want %p", strat, got, want)
		}
	}
}

// TestLeapfrogAncestryOnRecycledScratch builds the same three-level frame
// tree out of arena Scratch blocks several times in one run, so blocks
// come back from the free list in different roles with their previous
// parent links behind them. Each round, the descendant test must accept
// every true ancestor and reject parents' siblings, the reverse direction
// and self-ancestry through stale links; a released block must carry no
// parent link.
func TestLeapfrogAncestryOnRecycledScratch(t *testing.T) {
	const rounds = 4
	const limit = 8
	rt := NewRuntime(Config{Workers: 1, Strategy: StrategyLeapfrog})
	seen := map[*Scratch]bool{}
	reused := 0
	rt.Run(func(w *W) {
		acquire := func() (*Scratch, *Frame) {
			s := w.AcquireScratch()
			if seen[s] {
				reused++
			}
			seen[s] = true
			return s, s.Frame()
		}
		release := func(s *Scratch) {
			w.ReleaseScratch(s)
			if s.frame.parent.Load() != nil {
				t.Error("released Scratch block still links to a parent frame")
			}
		}
		for round := 0; round < rounds; round++ {
			sTop, top := acquire()
			w.Init(top)
			w.Fork(top, func(w *W) {
				sA, a := acquire()
				w.Init(a)
				sB, b := acquire()
				w.Init(b)
				w.Fork(a, func(w *W) {
					sG, g := acquire()
					w.Init(g)
					for _, c := range []struct {
						name       string
						f, anc     *Frame
						descendant bool
					}{
						{"grandchild of child", g, a, true},
						{"grandchild of top", g, top, true},
						{"child of top", a, top, true},
						{"sibling of child", b, top, true},
						{"grandchild of child's sibling", g, b, false},
						{"sibling of sibling", b, a, false},
						{"top of child", top, a, false},
						{"child of grandchild", a, g, false},
					} {
						if got := c.f.isDescendantWithin(c.anc, limit); got != c.descendant {
							t.Errorf("round %d: %s: isDescendantWithin = %v, want %v",
								round, c.name, got, c.descendant)
						}
					}
					release(sG)
				})
				w.Join(a)
				release(sB)
				release(sA)
			})
			w.Join(top)
			release(sTop)
		}
	})
	if reused == 0 {
		t.Fatal("no Scratch block was recycled; the test needs recycled frames")
	}
}

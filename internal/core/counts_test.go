package core

import (
	"context"
	"testing"
)

// fibInternal is the number of interior nodes of the fib(n) call tree:
// each one runs exactly one fork, one call and, on the ForkArg path, one
// Scratch acquire/release pair.
func fibInternal(n int) int64 {
	if n < 2 {
		return 0
	}
	return fibInternal(n-1) + fibInternal(n-2) + 1
}

// TestCountsExactAtJobCompletion pins the publication points of the
// slot-local fork-path counters: Forks, Calls, ArenaAcquires and
// ArenaReleases must equal the program's edges the moment Job.Err
// returns — before Close has stopped a single thief — and again after
// Close. A slot that kept counts past the completion of the tasks that
// made them (a missing flush before a handoff, a completion or a retiring
// thief) reads short here.
func TestCountsExactAtJobCompletion(t *testing.T) {
	const n = 15
	edges := fibInternal(n)
	want := fibSerial(n)
	for _, strat := range Strategies() {
		for _, dk := range DequeKinds() {
			t.Run(strat.String()+"/"+dk.String(), func(t *testing.T) {
				rt := NewRuntime(Config{Workers: 4, Strategy: strat, Deque: dk})
				check := func(when string, forks, calls, arena int64) {
					t.Helper()
					st := rt.Stats()
					if st.Forks != forks || st.Calls != calls {
						t.Errorf("%s: Forks=%d Calls=%d, want %d/%d", when, st.Forks, st.Calls, forks, calls)
					}
					if st.ArenaAcquires != arena || st.ArenaReleases != arena {
						t.Errorf("%s: ArenaAcquires=%d ArenaReleases=%d, want %d/%d",
							when, st.ArenaAcquires, st.ArenaReleases, arena, arena)
					}
				}
				rt.Start()
				var closureOut, argOut int64
				j := rt.Submit(func(w *W) { parfib(w, n, &closureOut) })
				if err := j.Err(); err != nil {
					t.Fatalf("closure fib: %v", err)
				}
				check("closure fib, after Job.Err", edges, edges, 0)
				j = rt.Submit(func(w *W) { argOut = gateFib(w, n) })
				if err := j.Err(); err != nil {
					t.Fatalf("ForkArg fib: %v", err)
				}
				check("ForkArg fib, after Job.Err", 2*edges, 2*edges, edges)
				if err := rt.Close(context.Background()); err != nil {
					t.Fatal(err)
				}
				check("after Close", 2*edges, 2*edges, edges)
				if closureOut != want || argOut != want {
					t.Fatalf("fib(%d) = %d (closure), %d (ForkArg), want %d", n, closureOut, argOut, want)
				}
			})
		}
	}
}

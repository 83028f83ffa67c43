package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked blocks until n thieves are parked or the deadline passes.
func waitParked(t *testing.T, rt *Runtime, n int, deadline time.Duration) {
	t.Helper()
	start := time.Now()
	for rt.park.parked() < n {
		if time.Since(start) > deadline {
			t.Fatalf("only %d/%d thieves parked after %v", rt.park.parked(), n, deadline)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestForkAfterAllThievesParked is the lost-wakeup stress test: once every
// thief is parked, the root forks a pair of tasks where the one it would
// run inline blocks until a THIEF runs the other. If a Fork could slip
// past a parking thief (a lost wakeup), the blocked task would never be
// released and the test would hang.
func TestForkAfterAllThievesParked(t *testing.T) {
	const workers = 4
	for _, kind := range DequeKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: workers, Deque: kind, StackPages: 4096})
			rt.Run(func(w *W) {
				for round := 0; round < 25; round++ {
					waitParked(t, rt, workers-1, 10*time.Second)
					release := make(chan struct{})
					var fr Frame
					w.Init(&fr)
					// Forked first, so it sits at the TOP of the deque:
					// only a woken thief can take it while the owner is
					// stuck inside the blocker below.
					w.Fork(&fr, func(*W) { close(release) })
					w.Fork(&fr, func(*W) { <-release })
					w.Join(&fr)
				}
			})
		})
	}
}

// TestParkWakeStressBursts alternates idle phases (letting thieves walk
// the whole backoff ladder and park) with fork bursts, across GOMAXPROCS
// settings — the interleavings the wake protocol must survive.
func TestParkWakeStressBursts(t *testing.T) {
	for _, procs := range []int{2, 4} {
		procs := procs
		t.Run(map[int]string{2: "gomaxprocs2", 4: "gomaxprocs4"}[procs], func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rt := NewRuntime(Config{Workers: 4, StackPages: 4096})
			var leaves atomic.Int64
			rt.Run(func(w *W) {
				for round := 0; round < 40; round++ {
					if round%4 == 0 {
						// Idle long enough for thieves to park.
						deadline := time.Now().Add(time.Second)
						for rt.park.parked() == 0 && time.Now().Before(deadline) {
							time.Sleep(50 * time.Microsecond)
						}
					}
					var fr Frame
					w.Init(&fr)
					for i := 0; i < 16; i++ {
						w.Fork(&fr, func(*W) { leaves.Add(1) })
					}
					w.Join(&fr)
				}
			})
			if got := leaves.Load(); got != 40*16 {
				t.Fatalf("leaves = %d, want %d", got, 40*16)
			}
		})
	}
}

// TestSerialWorkloadThievesGoQuiet pins the CPU-burn win: on a workload
// whose bottom is serial (no forks at all), thieves must park rather than
// spin, so the steal-attempt counter stays at zero — the seed runtime
// accumulated thousands of attempts per idle millisecond here.
func TestSerialWorkloadThievesGoQuiet(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4, StackPages: 4096})
	var parkedSeen bool
	rt.Run(func(w *W) {
		// Serial bottom: plain Calls and real elapsed time, no forks.
		for i := 0; i < 20; i++ {
			w.Call(func(*W) { time.Sleep(2 * time.Millisecond) })
			if rt.park.parked() == len(rt.workers)-1 {
				parkedSeen = true
			}
		}
	})
	if !parkedSeen {
		t.Error("thieves never all parked during a serial workload")
	}
	if st := rt.Stats(); st.StealAttempts != 0 {
		t.Errorf("StealAttempts = %d on a forkless workload, want 0 "+
			"(every deque stays visibly empty)", st.StealAttempts)
	}
}

// TestParkedThievesWakeForLateWork verifies a thief parked early in a run
// still participates later: after the parked phase, a burst of
// slow tasks must see at least one steal (a thief resumed work).
func TestParkedThievesWakeForLateWork(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4, StackPages: 4096})
	rt.Run(func(w *W) {
		waitParked(t, rt, 3, 10*time.Second)
		var fr Frame
		w.Init(&fr)
		for i := 0; i < 8; i++ {
			w.Fork(&fr, func(*W) { time.Sleep(time.Millisecond) })
		}
		w.Join(&fr)
	})
	if st := rt.Stats(); st.Steals == 0 {
		t.Error("no steals after wake: parked thieves never rejoined the computation")
	}
}

// TestSubmitAfterAllThievesParked is the wake-one lost-wakeup regression
// on the dispatch path: with every thief parked, each Submit must wake
// enough thieves to run the root AND the task it forks. The root blocks
// inside the task it would run inline until a second thief runs the
// other, so a dropped dispatch wake (or a fork wake swallowed by the
// token cap) hangs the test. Both intake kinds run the same rounds — the
// sharded push/wake(1) pair and the mutex baseline must be equally
// lost-wakeup-free.
func TestSubmitAfterAllThievesParked(t *testing.T) {
	const workers = 4
	for _, intake := range IntakeKinds() {
		intake := intake
		t.Run(intake.String(), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: workers, StackPages: 4096, Intake: intake})
			rt.Start()
			for round := 0; round < 25; round++ {
				waitParked(t, rt, workers, 10*time.Second)
				release := make(chan struct{})
				j := rt.Submit(func(w *W) {
					var fr Frame
					w.Init(&fr)
					// Forked first, so it sits at the TOP of the deque:
					// only a woken thief can take it while the root's
					// worker is stuck inside the blocker below.
					w.Fork(&fr, func(*W) { close(release) })
					w.Fork(&fr, func(*W) { <-release })
					w.Join(&fr)
				})
				if err := j.Err(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				j.Release()
			}
			if err := rt.Close(context.Background()); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestWakeTokenCapNoStaleTokens unit-tests the token accounting that
// makes wake-one safe: a wake burst larger than the sleeper population
// must not bank surplus tokens, or a thief parking later would sail
// straight through its sleep and busy-loop on an empty system.
func TestWakeTokenCapNoStaleTokens(t *testing.T) {
	p := newParkLot()
	noSweep := func() (task, bool) { return task{}, false }
	parkOne := func() chan struct{} {
		ch := make(chan struct{})
		go func() {
			p.park(noSweep)
			close(ch)
		}()
		return ch
	}
	waitSleepers := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for p.parked() != n {
			if time.Now().After(deadline) {
				t.Fatalf("parked() = %d, want %d", p.parked(), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	awaits := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never woke", what)
		}
	}

	// Phase 1: one sleeper, wake(8). The cap must clamp the burst to one
	// token — the sleeper wakes, and no token survives it.
	first := parkOne()
	waitSleepers(1)
	p.wake(8)
	awaits(first, "first sleeper after wake(8)")
	waitSleepers(0)

	// Phase 2: a fresh parker must actually sleep. If phase 1 banked
	// surplus tokens this parker would return immediately.
	second := parkOne()
	waitSleepers(1)
	select {
	case <-second:
		t.Fatal("second parker woke on a stale token from the wake(8) burst")
	case <-time.After(50 * time.Millisecond):
	}
	p.wake(1)
	awaits(second, "second sleeper after wake(1)")
	waitSleepers(0)

	// Phase 3: wakeAll releases every sleeper and, like the capped wake,
	// leaves no residue behind.
	a, b := parkOne(), parkOne()
	waitSleepers(2)
	p.wakeAll()
	awaits(a, "sleeper a after wakeAll")
	awaits(b, "sleeper b after wakeAll")
	waitSleepers(0)
	late := parkOne()
	waitSleepers(1)
	select {
	case <-late:
		t.Fatal("late parker woke on a stale token from wakeAll")
	case <-time.After(50 * time.Millisecond):
	}
	p.close()
	awaits(late, "late sleeper after close")
}

// TestParkFinalSweepMayWake: a parking thief's final sweep may publish
// work and wake the lot itself — a StealHalf batch steal shares its loot
// and calls wakeAll — so park must not hold its mutex across the sweep,
// or the thief deadlocks on itself and every other worker then blocks on
// the lot. The thief leaves with its task and banks no token.
func TestParkFinalSweepMayWake(t *testing.T) {
	p := newParkLot()
	done := make(chan bool)
	go func() {
		_, ok := p.park(func() (task, bool) {
			p.wakeAll()
			p.wake(1)
			return task{}, true
		})
		done <- ok
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("park dropped the task its final sweep found")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("park deadlocked: its final sweep woke the lot")
	}
	if p.parked() != 0 || p.tokens != 0 {
		t.Errorf("after the sweep found work: parked=%d tokens=%d, want 0,0", p.parked(), p.tokens)
	}
}

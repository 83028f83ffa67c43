package core

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func expectTaskPanic(t *testing.T, want any, f func()) *TaskPanic {
	t.Helper()
	defer func() {
		t.Helper()
		v := recover()
		if v == nil {
			t.Fatal("expected a panic")
		}
		tp, ok := v.(*TaskPanic)
		if !ok {
			t.Fatalf("panic value is %T, want *TaskPanic", v)
		}
		if want != nil && tp.Value != want {
			t.Fatalf("panic value = %v, want %v", tp.Value, want)
		}
	}()
	f()
	return nil
}

func TestForkPanicSurfacesAtJoin(t *testing.T) {
	for _, s := range Strategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: 4, Strategy: s})
			expectTaskPanic(t, "boom", func() {
				rt.Run(func(w *W) {
					var fr Frame
					w.Init(&fr)
					w.Fork(&fr, func(*W) { panic("boom") })
					w.Join(&fr)
				})
			})
		})
	}
}

func TestRootPanicSurfacesFromRun(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	expectTaskPanic(t, "root-boom", func() {
		rt.Run(func(w *W) { panic("root-boom") })
	})
}

func TestPanicPropagatesThroughNestedJoins(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	expectTaskPanic(t, "deep", func() {
		rt.Run(func(w *W) {
			var outer Frame
			w.Init(&outer)
			w.Fork(&outer, func(w *W) {
				var inner Frame
				w.Init(&inner)
				w.Fork(&inner, func(*W) { panic("deep") })
				w.Join(&inner) // re-raises; escapes this task; recorded on outer
			})
			w.Join(&outer) // re-raises again, same TaskPanic
		})
	})
}

func TestPanicThroughCallPropagatesDirectly(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	expectTaskPanic(t, "called", func() {
		rt.Run(func(w *W) {
			w.Call(func(*W) { panic("called") })
		})
	})
}

func TestFirstPanicWins(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	caught := expectCatch(t, func() {
		rt.Run(func(w *W) {
			var fr Frame
			w.Init(&fr)
			for i := 0; i < 8; i++ {
				w.Fork(&fr, func(*W) { panic("worker-panic") })
			}
			w.Join(&fr)
		})
	})
	if caught.Value != "worker-panic" {
		t.Errorf("caught %v", caught.Value)
	}
}

func expectCatch(t *testing.T, f func()) (tp *TaskPanic) {
	t.Helper()
	func() {
		defer func() {
			if v := recover(); v != nil {
				tp = v.(*TaskPanic)
			}
		}()
		f()
	}()
	if tp == nil {
		t.Fatal("expected a panic")
	}
	return tp
}

func TestRuntimeSurvivesPanicAndRunsAgain(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	expectCatch(t, func() {
		rt.Run(func(w *W) {
			var fr Frame
			w.Init(&fr)
			w.Fork(&fr, func(*W) { panic("once") })
			w.Join(&fr)
		})
	})
	// The same runtime must execute a clean computation afterwards.
	var out int64
	rt.Run(func(w *W) { parfib(w, 12, &out) })
	if out != 144 {
		t.Errorf("post-panic parfib(12) = %d, want 144", out)
	}
}

func TestSiblingsCompleteDespitePanic(t *testing.T) {
	// Other children of the frame still run to completion; the panic is
	// delivered only at the join.
	rt := NewRuntime(Config{Workers: 4})
	var completed atomic.Int64
	expectCatch(t, func() {
		rt.Run(func(w *W) {
			var fr Frame
			w.Init(&fr)
			w.Fork(&fr, func(*W) { panic("one bad apple") })
			for i := 0; i < 8; i++ {
				w.Fork(&fr, func(*W) { completed.Add(1) })
			}
			w.Join(&fr)
		})
	})
	if got := completed.Load(); got != 8 {
		t.Errorf("healthy siblings completed %d of 8", got)
	}
}

func TestTaskPanicUnwrapsErrors(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	rt := NewRuntime(Config{Workers: 2})
	tp := expectCatch(t, func() {
		rt.Run(func(w *W) {
			var fr Frame
			w.Init(&fr)
			w.Fork(&fr, func(*W) { panic(sentinel) })
			w.Join(&fr)
		})
	})
	if !errors.Is(tp, sentinel) {
		t.Error("errors.Is does not reach the wrapped error")
	}
	if !strings.Contains(tp.Error(), "sentinel failure") {
		t.Errorf("Error() = %q", tp.Error())
	}
	if len(tp.Stack) == 0 {
		t.Error("no stack captured")
	}
}

// TestConcurrentStolenPanicsRaiseOnce has several stolen children panic at
// the same moment. Join must raise exactly one *TaskPanic, carrying one of
// the children's values, and leave no panic on the frame: the same Scratch
// frame, Init-ed again for a clean phase and then recycled through the
// arena, must join without a stale panic. The joiner reaches takePanic
// both ways — suspended and resumed through the frame's channel, and
// (waitDone) straight after a zero count load — and reads the panic slot
// without a lock either way, so under -race this also checks that every
// child's recordPanic is ordered before that read.
func TestConcurrentStolenPanicsRaiseOnce(t *testing.T) {
	const children = 3
	if runtime.GOMAXPROCS(0) < children+1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(children + 1))
	}
	rt := NewRuntime(Config{Workers: children + 1})
	for round := 0; round < 20; round++ {
		waitDone := round%2 == 1
		var raised []any
		var leftover, stale bool
		rt.Run(func(w *W) {
			s := w.AcquireScratch()
			fr := s.Frame()
			w.Init(fr)
			var started atomic.Int32
			for i := 0; i < children; i++ {
				v := i
				w.Fork(fr, func(*W) {
					// Hold every thief until all children are stolen, so
					// the panics are recorded concurrently.
					started.Add(1)
					for started.Load() < children {
						runtime.Gosched()
					}
					panic(v)
				})
			}
			for started.Load() < children || (waitDone && fr.Pending() != 0) {
				runtime.Gosched()
			}
			func() {
				defer func() { raised = append(raised, recover()) }()
				w.Join(fr)
			}()
			leftover = fr.panicked != nil

			clean := func(fr *Frame) {
				defer func() {
					if recover() != nil {
						stale = true
					}
				}()
				w.Init(fr)
				w.Fork(fr, func(*W) {})
				w.Join(fr)
			}
			clean(fr)
			w.ReleaseScratch(s)
			s = w.AcquireScratch()
			clean(s.Frame())
			w.ReleaseScratch(s)
		})
		if len(raised) != 1 {
			t.Fatalf("round %d: Join raised %d times, want 1", round, len(raised))
		}
		tp, ok := raised[0].(*TaskPanic)
		if !ok {
			t.Fatalf("round %d: Join raised %T (%v), want *TaskPanic", round, raised[0], raised[0])
		}
		if v, ok := tp.Value.(int); !ok || v < 0 || v >= children {
			t.Errorf("round %d: panic value %v is not a child's", round, tp.Value)
		}
		if leftover {
			t.Errorf("round %d: Join left its panic on the frame", round)
		}
		if stale {
			t.Errorf("round %d: a clean phase on the re-Init-ed frame raised a stale panic", round)
		}
	}
}

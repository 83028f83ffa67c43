package main

import (
	"fmt"
	"io"
	"time"

	"fibril/internal/bench"
	"fibril/internal/check"
	"fibril/internal/core"
	"fibril/internal/vm"
)

// rng is splitmix64: every input a workload builds comes from it, seeded
// by -seed.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// opClock carries the root body's first- and last-line timestamps out of
// a job; the root writes them only in a traced session.
type opClock struct{ run0, run1 int64 }

// run runs root as one op through Runtime.Run (RunErr, so a root panic
// comes back as an error) on the started runtime, and records its latency
// and, when traced, its phases.
func (s *session) run(i int64, root func(*core.W), c *opClock) error {
	t0 := s.now()
	_, err := s.rt.RunErr(root)
	done := s.now()
	s.addLat(done - t0)
	s.phases(i, 0, t0, -1, c.run0, c.run1, done)
	return err
}

func injectedPanic() { panic("perfbench: injected panic") }

// --- fj-fine -------------------------------------------------------------

// fineNQueensPerFib is fj-fine's fixed mix: nqueens runs per fib run.
const fineNQueensPerFib = 4

// fjFine repeatedly runs the fine-grained ForkArg benchmarks fib and
// nqueens at their bench.Default inputs, one Run per op, each checked
// against the serial checksum. The seed orders the ops.
type fjFine struct {
	specs [2]*bench.Spec
	want  [2]uint64
	seq   []uint8
	res   uint64
	clk   opClock
	roots [2]func(*core.W)
}

func (f *fjFine) prepare(s *session) {
	f.specs = [2]*bench.Spec{bench.Get("fib"), bench.Get("nqueens")}
	for k, sp := range f.specs {
		f.want[k] = sp.Serial(sp.Default)
		sp, a := sp, sp.Default
		f.roots[k] = func(w *core.W) {
			if s.traced {
				f.clk.run0 = s.now()
			}
			f.res = sp.Parallel(w, a)
			if s.traced {
				f.clk.run1 = s.now()
			}
		}
	}
	// One fib to fineNQueensPerFib nqueens, in seeded order within each
	// block: fib(27) runs ~15x longer than nqueens(10), and a fixed share
	// keeps the latency median inside one benchmark's distribution instead
	// of on the seam between the two.
	r := rng(s.o.seed)
	f.seq = make([]uint8, 1000)
	for blk := 0; blk < len(f.seq); blk += fineNQueensPerFib + 1 {
		for i := 1; i <= fineNQueensPerFib; i++ {
			f.seq[blk+i] = 1
		}
		j := blk + r.intn(fineNQueensPerFib+1)
		f.seq[blk], f.seq[j] = f.seq[j], f.seq[blk]
	}
}

func (f *fjFine) op(s *session, i int64, k uint8) {
	root, want := f.roots[k], f.want[k]
	if s.failOp(i, "checksum") {
		want ^= 1
	}
	if s.failOp(i, "panic") {
		root = func(*core.W) { injectedPanic() }
	}
	f.res = 0
	err := s.run(i, root, &f.clk)
	s.chk.op(err == nil && f.res == want, "fj-fine op %d (%s): result %d err %v, want %d",
		i, f.specs[k].Name, f.res, err, want)
}

// warm runs each benchmark once, whatever the seed's order.
func (f *fjFine) warm(s *session) {
	f.op(s, 0, 0)
	f.op(s, 1, 1)
}

func (f *fjFine) measure(s *session, d time.Duration) {
	start := s.now()
	end := start + int64(d)
	var i int64
	for ; s.now() < end; i++ {
		f.op(s, i, f.seq[i%int64(len(f.seq))])
	}
	s.ops, s.window = i, time.Duration(s.now()-start)
}

func (f *fjFine) afterClose(*session) {}

func (f *fjFine) describe(w io.Writer) {
	fmt.Fprintf(w, "inputs: fib(%v) and nqueens(%v) (bench Default), 1:%d in seeded order; checked against Serial\n",
		f.specs[0].Default, f.specs[1].Default, fineNQueensPerFib)
}

// --- fj-deep -------------------------------------------------------------

// deepParams is the generator shape for fj-deep: deep trees with
// page-crossing frames, so steals, suspends, the stack pool, reclaim and
// vm faults all do real work.
var deepParams = check.Params{
	MaxNodes: 4000, MaxDepth: 20, MaxFanout: 3, MaxWork: 200,
	FrameMin: 1024, FrameMax: 16384,
}

// deepPrograms is the size of the seeded program set fj-deep cycles
// through.
const deepPrograms = 64

type deepProgram struct {
	p      *check.Program
	counts []uint32
	root   func(*core.W)
}

// fjDeep repeatedly runs programs from check.Generate, one Run per op,
// each checked by exactly-once node counts; after Close the stack RSS
// high-water is set against the paper's space bound.
type fjDeep struct {
	progs []*deepProgram
	clk   opClock
	// s1p and d are the largest serial stack (pages) and fibril depth
	// over the program set.
	s1p, d int
	// Read after Close, for describe.
	rss                          int64
	stacks, hw, p, capacityPages int
}

func (f *fjDeep) prepare(s *session) {
	r := rng(s.o.seed)
	f.progs = make([]*deepProgram, deepPrograms)
	for i := range f.progs {
		p := check.Generate(r.next(), deepParams)
		dp := &deepProgram{p: p, counts: make([]uint32, p.Nodes)}
		body := p.Body(dp.counts)
		dp.root = func(w *core.W) {
			if s.traced {
				f.clk.run0 = s.now()
			}
			body(w)
			if s.traced {
				f.clk.run1 = s.now()
			}
		}
		f.progs[i] = dp
		m := p.Metrics()
		f.s1p = max(f.s1p, vm.PageAlign(int(m.MaxStackBytes)))
		f.d = max(f.d, m.FibrilDepth)
	}
}

func (f *fjDeep) op(s *session, i int64) {
	dp := f.progs[i%int64(len(f.progs))]
	clear(dp.counts)
	root := dp.root
	if s.failOp(i, "panic") {
		root = func(*core.W) { injectedPanic() }
	}
	err := s.run(i, root, &f.clk)
	want := uint32(1)
	if s.failOp(i, "checksum") {
		want = 2
	}
	bad := 0
	for _, c := range dp.counts {
		if c != want {
			bad++
		}
	}
	s.chk.op(err == nil && bad == 0, "fj-deep op %d (%v): %d nodes not run exactly once, err %v",
		i, dp.p, bad, err)
}

func (f *fjDeep) warm(s *session) {
	for i := int64(0); i < 4; i++ {
		f.op(s, i)
	}
}

func (f *fjDeep) measure(s *session, d time.Duration) {
	start := s.now()
	end := start + int64(d)
	var i int64
	for ; s.now() < end; i++ {
		f.op(s, i)
	}
	s.ops, s.window = i, time.Duration(s.now()-start)
}

// afterClose reads the space figures describe prints. The paper's space
// bound P(S1+D) (Theorem 4.2) is printed beside MaxRSSPages but not
// checked: the runtime does not meet it on these programs, because pooled
// stacks keep the pages they last used.
func (f *fjDeep) afterClose(s *session) {
	st := s.rt.Stats()
	f.rss, f.stacks, f.p = st.VM.MaxRSSPages, st.StacksCreated, st.Workers
	f.hw, f.capacityPages = s.rt.MaxStackHighWaterPages(), s.rt.Config().StackPages
}

func (f *fjDeep) describe(w io.Writer) {
	fmt.Fprintf(w, "inputs: %d programs from check.Generate(%v); S1 <= %d pages, D <= %d\n",
		len(f.progs), deepParams, f.s1p, f.d)
	fmt.Fprintf(w, "space: max RSS %d pages over %d stacks, largest stack high-water %d of %d pages\n",
		f.rss, f.stacks, f.hw, f.capacityPages)
	bound := f.p * (f.s1p + f.d)
	verdict := "met"
	if f.rss > int64(bound) {
		verdict = "NOT met"
	}
	fmt.Fprintf(w, "space: paper's P(S1+D) at P=%d is %d pages: %s (max RSS / P(S1+D) = %.2f)\n",
		f.p, bound, verdict, float64(f.rss)/float64(bound))
}

// --- submit-burst --------------------------------------------------------

// burstWindow is submit-burst's fixed number of jobs in flight, and one
// in burstForkEvery roots (on average) forks a small fib instead of doing
// nothing.
const (
	burstWindow    = 16
	burstForkEvery = 8
	burstFibN      = 6
)

type burstSlot struct {
	job   *core.Job
	op    int64
	fork  bool
	panic bool
	res   uint64
	sub0  int64
	sub1  int64
	clk   opClock
	lane  int
	root  func(*core.W)
}

// submitBurst is one submitter goroutine in a closed loop that keeps
// burstWindow tiny roots in flight. Each op is one job, timed from Submit
// to Err returning; each root returns a value the submitter checks, and
// the handle then goes back to the runtime's Job pool.
type submitBurst struct {
	slots   [burstWindow]*burstSlot
	forks   []bool
	fib     *bench.Spec
	fibWant uint64
}

func (b *submitBurst) prepare(s *session) {
	b.fib = bench.Get("fib")
	b.fibWant = b.fib.Serial(bench.Arg{N: burstFibN})
	for k := range b.slots {
		b.slots[k] = b.newSlot(s, k)
	}
	r := rng(s.o.seed)
	b.forks = make([]bool, 4096)
	for i := range b.forks {
		b.forks[i] = r.intn(burstForkEvery) == 0
	}
}

func (b *submitBurst) newSlot(s *session, lane int) *burstSlot {
	sl := &burstSlot{lane: lane}
	sl.root = func(w *core.W) {
		if s.traced {
			sl.clk.run0 = s.now()
		}
		if sl.panic {
			injectedPanic()
		}
		if sl.fork {
			sl.res = b.fib.Parallel(w, bench.Arg{N: burstFibN})
		} else {
			sl.res = uint64(sl.op)
		}
		if s.traced {
			sl.clk.run1 = s.now()
		}
	}
	return sl
}

// release hands a completed job back to the runtime's pool, reporting the
// panic Release raises for a job that has not completed.
func release(j *core.Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("Release: %v", r)
		}
	}()
	j.Release()
	return nil
}

// finish waits for the job in slot k, checks it, and releases the handle.
func (b *submitBurst) finish(s *session, k int, wrong bool) {
	sl := b.slots[k]
	err := sl.job.Err()
	done := s.now()
	if perr := release(sl.job); perr != nil {
		// Err returned before the job completed: its root may still write
		// into this slot, so later ops get a fresh one.
		s.chk.op(false, "submit-burst op %d: Err returned %v, then %v", sl.op, err, perr)
		b.slots[k] = b.newSlot(s, k)
		return
	}
	sl.job = nil
	s.addLat(done - sl.sub0)
	s.phases(sl.op, sl.lane, sl.sub0, sl.sub1, sl.clk.run0, sl.clk.run1, done)
	want := uint64(sl.op)
	if sl.fork {
		want = b.fibWant
	}
	if wrong {
		want ^= 1
	}
	s.chk.op(err == nil && sl.res == want, "submit-burst op %d: result %d err %v, want %d", sl.op, sl.res, err, want)
}

// loop runs ops until the session clock passes end (or n ops when n > 0)
// and drains the window; it returns the ops completed.
func (b *submitBurst) loop(s *session, end int64, n int64) int64 {
	var i int64
	wrongAt := int64(-1)
	for ; ; i++ {
		k := int(i % burstWindow)
		if b.slots[k].job != nil {
			b.finish(s, k, b.slots[k].op == wrongAt)
		}
		if (n > 0 && i >= n) || (n == 0 && s.now() >= end) {
			break
		}
		sl := b.slots[k]
		sl.op = i
		sl.fork = b.forks[i%int64(len(b.forks))]
		sl.panic = s.failOp(i, "panic")
		if s.failOp(i, "checksum") {
			wrongAt = i
		}
		sl.sub0 = s.now()
		sl.job = s.rt.Submit(sl.root)
		sl.sub1 = s.now()
	}
	for d := int64(1); d < burstWindow; d++ {
		if k := int((i + d) % burstWindow); b.slots[k].job != nil {
			b.finish(s, k, b.slots[k].op == wrongAt)
		}
	}
	return i
}

func (b *submitBurst) warm(s *session) { b.loop(s, 0, 20000) }

func (b *submitBurst) measure(s *session, d time.Duration) {
	start := s.now()
	s.ops = b.loop(s, start+int64(d), 0)
	s.window = time.Duration(s.now() - start)
}

func (b *submitBurst) afterClose(*session) {}

func (b *submitBurst) describe(w io.Writer) {
	fmt.Fprintf(w, "closed loop: 1 submitter, %d jobs in flight; roots: noop returning the op id, 1 in %d forks fib(%d)\n",
		burstWindow, burstForkEvery, burstFibN)
}

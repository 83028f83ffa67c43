package main

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"fibril/internal/deque"
	"fibril/internal/stack"
	"fibril/internal/vm"
)

// probes are unit costs of the deque, stack and vm layers' public
// functions, each timed in isolation on P goroutines at once.
type probes struct {
	pushPop float64 // ns per Deque Push+Pop pair, owner side
	steal   float64 // ns per successful Deque Steal against a pushing owner
	takePut float64 // ns per ShardedPool Take+Put pair
	fault   float64 // ns per Region.Touch of a non-resident page
	madvise float64 // ns per 4-page Region.Madvise
	mmap    float64 // ns per stack-sized AddressSpace.MMap
}

// probeTask has the size and pointer layout of the runtime's deque
// element (eight words), so the probe moves as much as a fork does.
type probeTask struct {
	fn, argfn, arg, frame, job, heavy, claim unsafe.Pointer
	bytes, depth                             int32
}

// probeReps repeats each probe; the median is reported.
const probeReps = 5

func runProbes(p int) probes {
	return probes{
		pushPop: medianOf(func() float64 { return parallel(p, probePushPop) }),
		steal:   medianOf(probeSteal),
		takePut: medianOf(func() float64 { return probeTakePut(p) }),
		fault:   medianOf(func() float64 { return probeVM(p, probeFault) }),
		madvise: medianOf(func() float64 { return probeVM(p, probeMadvise) }),
		mmap:    medianOf(func() float64 { return probeVM(p, probeMMap) }),
	}
}

func medianOf(f func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// parallel runs f on p goroutines released together and returns the mean
// of their results.
func parallel(p int, f func(g int) float64) float64 {
	res := make([]float64, p)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			res[g] = f(g)
		}(g)
	}
	close(start)
	wg.Wait()
	var sum float64
	for _, r := range res {
		sum += r
	}
	return sum / float64(p)
}

func nsPer(t0 time.Time, n int) float64 { return float64(time.Since(t0).Nanoseconds()) / float64(n) }

// probePushPop pushes 16 tasks and pops them again, as a run of forks
// followed by their joins does on the owner's deque.
func probePushPop(int) float64 {
	const rounds, depth = 1 << 15, 16
	var d deque.Deque[probeTask]
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < depth; i++ {
			d.Push(probeTask{depth: int32(i)})
		}
		for i := 0; i < depth; i++ {
			d.Pop()
		}
	}
	return nsPer(t0, rounds*depth)
}

// probeSteal steals from a deque whose owner keeps pushing (and popping
// back to 256 entries) on another goroutine.
func probeSteal() float64 {
	const calls = 1 << 17
	var d deque.Deque[probeTask]
	for i := 0; i < 256; i++ {
		d.Push(probeTask{})
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d.Push(probeTask{})
			if d.Len() > 256 {
				d.Pop()
			}
		}
	}()
	got := 0
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, ok := d.Steal(); ok {
			got++
		}
	}
	el := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	return float64(el.Nanoseconds()) / float64(max(got, 1))
}

// probeTakePut has each of p goroutines take a stack from its own shard of
// one ShardedPool and put it back.
func probeTakePut(p int) float64 {
	pool := stack.NewShardedPool(vm.NewAddressSpace(), stack.DefaultStackPages, 0, p)
	return parallel(p, func(g int) float64 {
		const n = 1 << 17
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s, err := pool.Take(g)
			if err != nil {
				panic(err)
			}
			pool.Put(g, s)
		}
		return nsPer(t0, n)
	})
}

// probeVM runs a vm probe on p goroutines sharing one address space, as
// the runtime's workers share theirs.
func probeVM(p int, f func(as *vm.AddressSpace) float64) float64 {
	as := vm.NewAddressSpace()
	return parallel(p, func(int) float64 { return f(as) })
}

// probeFault touches every page of a stack-sized region (each Touch a
// fault), then madvises them away untimed, and repeats.
func probeFault(as *vm.AddressSpace) float64 {
	const pages, reps = stack.DefaultStackPages, 256
	r := mustMap(as, pages)
	var el time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		r.TouchRange(0, pages)
		el += time.Since(t0)
		r.Madvise(0, pages)
	}
	r.MUnmap()
	return float64(el.Nanoseconds()) / (pages * reps)
}

// probeMadvise returns resident pages four at a time, the size of a
// typical suspended stack's unmap.
func probeMadvise(as *vm.AddressSpace) float64 {
	const pages, span, reps = 1024, 4, 64
	r := mustMap(as, pages)
	var el time.Duration
	for i := 0; i < reps; i++ {
		r.TouchRange(0, pages)
		t0 := time.Now()
		for lo := 0; lo < pages; lo += span {
			r.Madvise(lo, lo+span)
		}
		el += time.Since(t0)
	}
	r.MUnmap()
	return float64(el.Nanoseconds()) / (pages / span * reps)
}

// probeMMap maps stack-sized regions (unmapping them untimed afterwards).
func probeMMap(as *vm.AddressSpace) float64 {
	const n = 4096
	rs := make([]*vm.Region, n)
	t0 := time.Now()
	for i := range rs {
		rs[i] = mustMap(as, stack.DefaultStackPages)
	}
	ns := nsPer(t0, n)
	for _, r := range rs {
		r.MUnmap()
	}
	return ns
}

func mustMap(as *vm.AddressSpace, pages int) *vm.Region {
	r, err := as.MMap(pages)
	if err != nil {
		panic(err)
	}
	return r
}

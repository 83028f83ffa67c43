package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"fibril/internal/core"
)

// setupReps is how many times an untraced run sets its workload up from
// scratch (NewRuntime + Start + inputs + warm-up); setup_s is their median.
// The first set-up is the one measured, so no earlier runtime's leftovers
// are in the process while it runs; the others follow its Close.
const setupReps = 3

// A workload drives one session. prepare and warm are set-up; measure is
// the timed window; afterClose adds the workload's own checks of the
// closed runtime.
type workload interface {
	prepare(s *session)
	warm(s *session)
	measure(s *session, d time.Duration)
	afterClose(s *session)
	describe(w io.Writer)
}

var workloads = map[string]func() workload{
	"fj-fine":      func() workload { return &fjFine{} },
	"fj-deep":      func() workload { return &fjDeep{} },
	"submit-burst": func() workload { return &submitBurst{} },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checker tallies ops and check outcomes. Only the goroutine running the
// workload calls it, so it needs no lock.
type checker struct {
	attempted, failed int64
	notes             []string
}

func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// check records the outcome of a check that is not itself an op; a
// failure counts as one failed op.
func (c *checker) check(ok bool, format string, args ...any) {
	if !ok {
		c.fail(format, args...)
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// session is one set-up runtime and what its timed window recorded.
type session struct {
	o      *options
	rt     *core.Runtime
	chk    *checker
	origin time.Time // clock zero; also the trace's time origin
	traced bool
	sink   *layerSink
	spans  *spanLog
	// injecting is set for the timed window of the measured session only.
	injecting bool

	// Filled by the workload's measure.
	ops    int64         // ops completed in the throughput window
	window time.Duration // the throughput window

	lat                                 *hist // per-op latency
	win                                 *winP99
	submit, dispatch, runBody, complete *hist

	// Filled by the frame around measure.
	before, after core.Stats
	winFrom       int64 // window bounds on the session clock
	winTo         int64
	allocs        uint64
	memBase       float64 // live memory after prepare, before NewRuntime
	memPeak       float64
}

func (s *session) now() int64 { return int64(time.Since(s.origin)) }

// addLat records one op's latency.
func (s *session) addLat(lat int64) {
	s.lat.add(lat)
	s.win.add(lat)
}

// p99 is latency_p99_us in ns: the median over the run's windows of
// winOps consecutive ops of each window's p99, or the p99 of all ops when
// a run has fewer than two windows. A stall of the host moves the windows
// it falls in, not the metric: on a shared 2-vCPU virtual machine even an
// idle timer loop sees 1-10 ms wake-up stalls.
func (s *session) p99() float64 {
	if len(s.win.p99s) < 2 {
		return s.lat.quantile(0.99)
	}
	return median(s.win.p99s)
}

// failOp reports whether timed op i is the one a self-test run makes fail
// in the given way: the first, so even the shortest window has it.
func (s *session) failOp(i int64, how string) bool {
	return s.injecting && i == 0 && s.o.inject == how
}

// phases records one op's intake phases in a traced session: the Submit
// call [sub0,sub1] (sub1 < 0 when the op went through Run, which does not
// return between Submit and the wait), dispatch to the root's first line
// run0, the root body to run1, and completion until Err returned at done
// (0 when the op's Err was read later). lane is the op's slot.
func (s *session) phases(op int64, lane int, sub0, sub1, run0, run1, done int64) {
	if !s.traced || sub0 < s.winFrom {
		return
	}
	from := sub0
	if sub1 >= 0 {
		s.submit.add(sub1 - sub0)
		from = sub1
	}
	s.dispatch.add(run0 - from)
	s.runBody.add(run1 - run0)
	if done > 0 {
		s.complete.add(done - run1)
	}
	s.spans.op(op, lane, sub0, sub1, run0, run1, done)
}

// setUp sets the workload up once on a new runtime. It returns the
// session and its set-up time in seconds.
func setUp(o *options, traced bool, chk *checker) (*session, workload, float64) {
	s := &session{o: o, chk: chk, traced: traced,
		lat: &hist{}, win: newWinP99(), submit: &hist{}, dispatch: &hist{}, runBody: &hist{}, complete: &hist{}}
	runtime.GC()
	s.origin = time.Now()
	wl := workloads[o.workload]()
	wl.prepare(s)
	// The baseline for mem_peak_mb; the collection it needs is not set-up
	// work, so its time is left out of setup_s.
	g0 := s.now()
	s.memBase = liveMem()
	gc := s.now() - g0
	cfg := core.Config{} // the runtime's defaults: P = GOMAXPROCS
	if traced {
		s.sink = newLayerSink()
		s.spans = &spanLog{}
		cfg.Sink = s.sink
		s.sink.offset = s.now() // the tracer's clock starts in NewRuntime
	}
	s.rt = core.NewRuntime(cfg)
	s.rt.Start()
	wl.warm(s)
	end := s.now()
	s.spans.add("setup", laneMain, 0, end)
	return s, wl, float64(end-gc) / 1e9
}

// setUpAgain repeats the set-up for setup_s, then closes and checks the
// runtime.
func setUpAgain(o *options, chk *checker) float64 {
	s, wl, t := setUp(o, false, chk)
	s.rt.Close(context.Background())
	closeChecks(s)
	wl.afterClose(s)
	return t
}

// measureSession runs the timed window of d on a set-up session, closes
// the runtime and checks it.
func measureSession(s *session, wl workload, d time.Duration) {
	// Reset the recorders in place: memory allocated after the baseline
	// read would count in mem_peak_mb.
	for _, h := range []*hist{s.lat, s.submit, s.dispatch, s.runBody, s.complete} {
		*h = hist{}
	}
	s.win.reset()
	runtime.GC()
	s.before = s.rt.Stats()
	allocs0 := heapAllocs()
	mem := startMemSampler(s.memBase)
	s.winFrom = s.now()
	if s.sink != nil {
		s.sink.setWindow(s.winFrom, 1<<62)
	}
	s.injecting = true
	wl.measure(s, d)
	s.injecting = false
	s.winTo = s.now()
	if s.sink != nil {
		s.sink.setWindow(s.winFrom, s.winTo)
	}
	s.memPeak = mem.stop()
	s.allocs = heapAllocs() - allocs0
	s.after = s.rt.Stats()
	t := s.now()
	s.rt.Close(context.Background())
	s.spans.add("close", laneMain, t, s.now())
	closeChecks(s)
	wl.afterClose(s)
}

// closeChecks are the checks every workload makes of a closed runtime:
// job conservation, post-Close quiescence and page conservation.
func closeChecks(s *session) {
	st := s.rt.Stats()
	c := s.chk
	c.check(st.JobsSubmitted == st.JobsShed+st.JobsDrained+st.JobsCompleted,
		"job conservation: submitted %d != shed %d + drained %d + completed %d",
		st.JobsSubmitted, st.JobsShed, st.JobsDrained, st.JobsCompleted)
	c.check(st.JobsAdmitted == st.JobsCompleted,
		"job conservation: admitted %d != completed %d", st.JobsAdmitted, st.JobsCompleted)
	c.check(s.rt.QueuedTasks() == 0, "after Close: %d queued tasks", s.rt.QueuedTasks())
	c.check(s.rt.PendingReclaims() == 0, "after Close: %d pending reclaims", s.rt.PendingReclaims())
	// Blocks on the remote-free lists are free blocks waiting for their home
	// slot's next drain, so the backlog need not be 0; none may be lost.
	c.check(int64(s.rt.RemoteFreeBacklog()) == st.RemoteFrees-st.RemoteDrains,
		"after Close: remote-free backlog %d != RemoteFrees %d - RemoteDrains %d",
		s.rt.RemoteFreeBacklog(), st.RemoteFrees, st.RemoteDrains)
	// The default strategy frees resident pages only by madvise, and Close
	// keeps the pooled stacks mapped, so every resident page is a fault not
	// yet madvised. A stack is resident at most up to its high-water.
	v := st.VM
	c.check(v.MUnmapCalls == 0 && v.RSSPages == v.PageFaults-v.MadvisedPages,
		"page conservation: RSS %d pages != faults %d - madvised %d (munmaps %d)",
		v.RSSPages, v.PageFaults, v.MadvisedPages, v.MUnmapCalls)
	hw := s.rt.MaxStackHighWaterPages()
	c.check(v.MaxRSSPages <= int64(st.StacksCreated)*int64(hw),
		"page conservation: max RSS %d pages > stacks %d x largest stack high-water %d pages",
		v.MaxRSSPages, st.StacksCreated, hw)
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// memSampler tracks the Go heap's live bytes plus goroutine stack memory,
// read every 10 ms: the real memory a workload holds, without the garbage
// whose amount depends on when the GC ran. The live heap is only known at
// the end of a collection, so the heap part of a sample is as of the latest
// one, and the sampler collects once more when the window ends, before
// Close, so a window without a collection still counts what the runtime
// retained. It reports the largest sample less base, the live memory the
// session held before NewRuntime (its inputs and the benchmark itself), so
// what it reports is what the runtime and the ops in flight add.
type memSampler struct {
	stopc chan struct{}
	done  chan float64
}

func memSamples() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/stacks:bytes"}}
}

func readGoMem(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64() + s[1].Value.Uint64())
}

// liveMem collects garbage and returns the live memory readGoMem sees.
func liveMem() float64 {
	runtime.GC()
	return readGoMem(memSamples())
}

func startMemSampler(base float64) *memSampler {
	m := &memSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := memSamples()
		peak := readGoMem(s)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stopc:
				m.done <- max(peak, liveMem()) - base
				return
			case <-tick.C:
				peak = max(peak, readGoMem(s))
			}
		}
	}()
	return m
}

// stop ends the sampler, waits for it, and returns the peak in bytes.
func (m *memSampler) stop() float64 {
	close(m.stopc)
	return <-m.done
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// report prints how the session's latencies were measured.
func report(out io.Writer, s *session) {
	fmt.Fprintf(out, "per-op latency: %d samples, %d beyond the p99 of all, which is %.1f us; max %.1f us\n",
		s.lat.n, s.lat.beyond(0.99), s.lat.quantile(0.99)/1e3, float64(s.lat.max)/1e3)
	if w := s.win.p99s; len(w) > 0 {
		ws := append([]float64(nil), w...)
		sort.Float64s(ws)
		fmt.Fprintf(out, "p99 of %d windows of %d ops: min %.1f us, median %.1f us, max %.1f us\n",
			len(ws), winOps, ws[0]/1e3, median(ws)/1e3, ws[len(ws)-1]/1e3)
	}
}

func (s *session) opsPerSecond() float64 {
	if s.window <= 0 {
		return 0
	}
	return float64(s.ops) / s.window.Seconds()
}

// endToEndRun is the untraced run: the end-to-end metrics.
func endToEndRun(o options, out io.Writer) (result, error) {
	chk := &checker{}
	ms, t := measuredRun(&o, chk, out)
	// The measured session is unreachable by now, so the repeated set-ups
	// run beside none of its inputs.
	setups := []float64{t}
	for len(setups) < setupReps {
		setups = append(setups, setUpAgain(&o, chk))
	}
	ms["setup_s"] = metric{median(setups), "s"}
	fmt.Fprintf(out, "setup seconds: %v\n", setups)
	for _, n := range chk.notes {
		fmt.Fprintf(out, "FAILED: %s\n", n)
	}
	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   ms,
	}
	if res.Attempted == 0 {
		return res, fmt.Errorf("no op completed in %.1f s", o.seconds)
	}
	return res, nil
}

// measuredRun sets up and measures the session the end-to-end metrics come
// from, describes it, and returns its metrics but setup_s, and its set-up
// time.
func measuredRun(o *options, chk *checker, out io.Writer) (map[string]metric, float64) {
	s, wl, t := setUp(o, false, chk)
	measureSession(s, wl, time.Duration(o.seconds*float64(time.Second)))
	fmt.Fprintf(out, "workload %s  seed %d  P=%d  default core.Config\n", o.workload, o.seed, s.after.Workers)
	wl.describe(out)
	report(out, s)
	return map[string]metric{
		"ops_per_s":      {s.opsPerSecond(), "ops/s"},
		"latency_p50_us": {s.lat.quantile(0.50) / 1e3, "us"},
		"latency_p99_us": {s.p99() / 1e3, "us"},
		"max_rss_pages":  {float64(s.after.VM.MaxRSSPages), "pages"},
		"mem_peak_mb":    {s.memPeak / (1 << 20), "MB"},
	}, t
}

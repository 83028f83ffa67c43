package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fibril/internal/trace"
)

// layerSink is the traced run's trace.Sink. It masks out KindFork, so the
// fork path keeps its nil-sink cost, folds the duration-carrying events of
// the timed window into histograms, and keeps the first keepEvents events
// for the Chrome trace written at the end.
type layerSink struct {
	mu       sync.Mutex
	offset   int64 // session-clock time of the tracer's start
	from, to int64 // the timed window on the session clock
	sweep    hist  // KindSteal: the winning steal sweep
	taskRun  hist  // KindTaskEnd: a stolen task's run
	joinWait hist  // KindJoinWait: a suspended joiner's wait
	events   []trace.Event
	dropped  int64
}

const keepEvents = 200000

func newLayerSink() *layerSink { return &layerSink{from: 1 << 62} }

func (k *layerSink) EventMask() uint64 { return trace.MaskAll &^ trace.MaskOf(trace.KindFork) }

func (k *layerSink) Consume(batch []trace.Event) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, e := range batch {
		if len(k.events) < keepEvents {
			k.events = append(k.events, e)
		} else {
			k.dropped++
		}
		if at := int64(e.At) + k.offset; at < k.from || at > k.to {
			continue
		}
		switch e.Kind {
		case trace.KindSteal:
			k.sweep.add(int64(e.Dur))
		case trace.KindTaskEnd:
			k.taskRun.add(int64(e.Dur))
		case trace.KindJoinWait:
			k.joinWait.add(int64(e.Dur))
		}
	}
}

func (k *layerSink) setWindow(from, to int64) {
	k.mu.Lock()
	k.from, k.to = from, to
	k.mu.Unlock()
}

// Benchmark span lanes in the Chrome trace: set-up and Close on laneMain,
// each op's Submit, dispatch, run and completion on laneOps + its slot.
const (
	laneMain  = 0
	laneOps   = 10
	keepSpans = 100000
)

type span struct {
	name   string
	lane   int
	op     int64
	t0, t1 int64
}

// spanLog keeps the benchmark's own spans in memory until the run ends.
// A nil log (untraced session) ignores them.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func (l *spanLog) add(name string, lane int, t0, t1 int64) { l.addOp(name, lane, -1, t0, t1) }

func (l *spanLog) addOp(name string, lane int, op, t0, t1 int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < keepSpans {
		l.spans = append(l.spans, span{name, lane, op, t0, t1})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

func (l *spanLog) op(op int64, lane int, sub0, sub1, run0, run1, done int64) {
	lane += laneOps
	if sub1 >= 0 {
		l.addOp("submit", lane, op, sub0, sub1)
		sub0 = sub1
	}
	l.addOp("dispatch", lane, op, sub0, run0)
	l.addOp("run", lane, op, run0, run1)
	if done > 0 {
		l.addOp("complete", lane, op, run1, done)
	}
}

// writeChrome writes the session's runtime events and benchmark spans as
// one Chrome trace_event array: the runtime's events exactly as
// trace.ChromeSink (and fibril-trace -chrome) renders them, on pid 1, and
// the benchmark's spans on pid 2, on the same clock.
func writeChrome(path string, s *session) error {
	var buf bytes.Buffer
	cs := trace.NewChromeSink(&buf)
	events := make([]trace.Event, len(s.sink.events))
	for i, e := range s.sink.events {
		e.At += time.Duration(s.sink.offset)
		events[i] = e
	}
	cs.Consume(events)
	if err := cs.Close(); err != nil {
		return err
	}
	body := strings.TrimSuffix(buf.String(), "\n]\n")
	sep := ","
	if body == "[" {
		sep = ""
	}
	var b strings.Builder
	b.WriteString(body)
	entry := func(format string, args ...any) {
		b.WriteString(sep)
		b.WriteString("\n")
		fmt.Fprintf(&b, format, args...)
		sep = ","
	}
	entry(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"fibril runtime (workers)"}}`)
	entry(`{"name":"process_name","ph":"M","pid":2,"args":{"name":"perfbench %s"}}`, s.o.workload)
	for _, sp := range s.spans.spans {
		entry(`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":2,"tid":%d,"args":{"op":%d}}`,
			sp.name, float64(sp.t0)/1e3, float64(max(sp.t1-sp.t0, 0))/1e3, sp.lane, sp.op)
	}
	b.WriteString("\n]\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// tracedRun is the traced run: half the window untraced (the reference for
// trace.overhead_pct), half traced with the layer sink attached, then the
// layer probes. It reports the per-layer metrics.
func tracedRun(o options, out io.Writer) (result, error) {
	chk := &checker{}
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	refOpts := o
	refOpts.inject = ""
	ref, refWl, _ := setUp(&refOpts, false, chk)
	measureSession(ref, refWl, half)
	s, wl, _ := setUp(&o, true, chk)
	measureSession(s, wl, half)
	p := runProbes(s.after.Workers)

	path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeChrome(path, s); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "workload %s  seed %d  P=%d  traced (KindFork masked out)\n", o.workload, o.seed, s.after.Workers)
	wl.describe(out)
	report(out, s)
	fmt.Fprintf(out, "spans: %s (%d runtime events, %d dropped; %d benchmark spans, %d dropped)\n",
		path, len(s.sink.events), s.sink.dropped, len(s.spans.spans), s.spans.dropped)
	fmt.Fprintf(out, "probes at P=%d: %+v\n", s.after.Workers, p)
	for _, n := range chk.notes {
		fmt.Fprintf(out, "FAILED: %s\n", n)
	}
	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   layerMetrics(ref, s, p),
	}
	if s.ops == 0 {
		return res, fmt.Errorf("no op completed in %.1f s", o.seconds/2)
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics of traced session s: counter
// deltas over its window per op, event and span durations, the probes'
// unit costs, and each layer's computed busy time per op (unit cost times
// the exact per-op count). ref is the untraced run of the same workload.
func layerMetrics(ref, s *session, p probes) map[string]metric {
	a, b := s.after, s.before
	ops := float64(s.ops)
	per := func(d int64) float64 { return float64(d) / ops }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	forks := per(a.Forks - b.Forks)
	steals := per(a.Steals - b.Steals)
	suspends := per(a.Suspends - b.Suspends)
	faults := per(a.VM.PageFaults - b.VM.PageFaults)
	madvises := per(a.VM.MadviseCalls - b.VM.MadviseCalls)
	mmaps := a.VM.MMapCalls - b.VM.MMapCalls

	// Overhead of tracing: the traced half's throughput against the
	// untraced half's.
	overhead := (ratio(ref.opsPerSecond(), s.opsPerSecond()) - 1) * 100

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("core.fork.forks_per_op", forks, "count/op")
	put("core.fork.ns_per_fork", ratio(s.lat.mean(), forks), "ns")
	put("core.fork.arena_remote_frees_per_op", per(a.RemoteFrees-b.RemoteFrees), "count/op")
	put("core.fork.suspends_per_op", suspends, "count/op")
	put("core.fork.join_wait_ns_p50", s.sink.joinWait.quantile(0.5), "ns")
	put("core.fork.join_wait_ns_p99", s.sink.joinWait.quantile(0.99), "ns")
	put("core.fork.join_wait_ns_sum_per_op", s.sink.joinWait.sum/ops, "ns/op")

	put("deque.push_pop_ns", p.pushPop, "ns")
	put("deque.steal_ns", p.steal, "ns")
	put("deque.dup_extractions_per_op", per(a.DuplicateExtractions-b.DuplicateExtractions), "count/op")
	put("deque.busy_ns_per_op_computed", p.pushPop*forks+p.steal*steals, "ns/op")

	put("core.steal.steals_per_op", steals, "count/op")
	put("core.steal.attempts_per_op", per(a.StealAttempts-b.StealAttempts), "count/op")
	put("core.steal.success_ratio", ratio(float64(a.Steals-b.Steals), float64(a.StealAttempts-b.StealAttempts)), "ratio")
	put("core.steal.sweep_ns_p50", s.sink.sweep.quantile(0.5), "ns")
	put("core.steal.sweep_ns_p99", s.sink.sweep.quantile(0.99), "ns")
	put("core.steal.task_run_ns", s.sink.taskRun.quantile(0.5), "ns")

	put("core.reclaim.unmaps_per_op", per(a.Unmaps-b.Unmaps), "count/op")
	put("core.reclaim.unmapped_pages_per_op", per(a.UnmappedPages-b.UnmappedPages), "pages/op")

	put("vm.page_faults_per_op", faults, "count/op")
	put("vm.madvise_calls_per_op", madvises, "count/op")
	put("vm.madvised_pages_per_op", per(a.VM.MadvisedPages-b.VM.MadvisedPages), "pages/op")
	put("vm.mmap_calls", float64(mmaps), "count")
	put("vm.lock_contended", float64(a.VM.LockContended-b.VM.LockContended), "count")
	put("vm.fault_ns", p.fault, "ns")
	put("vm.madvise_ns", p.madvise, "ns")
	put("vm.mmap_ns", p.mmap, "ns")
	put("vm.busy_ns_per_op_computed", p.fault*faults+p.madvise*madvises+p.mmap*per(mmaps), "ns/op")

	put("stack.created", float64(a.StacksCreated), "count")
	put("stack.max_in_use", float64(a.MaxStacksUsed), "count")
	put("stack.pool_stalls", float64(a.PoolStalls), "count")
	put("stack.take_put_ns", p.takePut, "ns")
	// Every suspension starts a replacement thief, which takes a stack from
	// the pool and puts it back when it retires.
	put("stack.busy_ns_per_op_computed", p.takePut*suspends, "ns/op")

	put("core.intake.submit_ns_p50", s.submit.quantile(0.5), "ns")
	put("core.intake.submit_ns_p99", s.submit.quantile(0.99), "ns")
	put("core.intake.allocs_per_submit", per(int64(s.allocs)), "count")
	put("core.intake.complete_ns", s.complete.quantile(0.5), "ns")
	put("core.intake.dispatch_ns_p50", s.dispatch.quantile(0.5), "ns")
	put("core.intake.dispatch_ns_p99", s.dispatch.quantile(0.99), "ns")
	put("core.intake.run_ns", s.runBody.quantile(0.5), "ns")

	put("trace.overhead_pct", overhead, "%")
	return m
}

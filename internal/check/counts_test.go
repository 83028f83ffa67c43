package check

import (
	"context"
	"testing"

	"fibril/internal/core"
)

// TestCountsExactAfterJobErr replays the program that exposed fork-path
// counts left behind on a suspending worker's slot: seed 0x25 at P=4 on
// the THE deque. A suspension hands its slot to a replacement thief, which
// can exit without ever running when Close shuts the pool first; counts
// the suspender had not published before the handoff then never reach
// Stats. Forks, Calls and the Scratch acquire/release pairs must match the
// program's edges as soon as Job.Err returns, and still after Close, on
// every one of many runs.
func TestCountsExactAfterJobErr(t *testing.T) {
	p := Generate(0x25, Params{})
	if p.LazyEdges != 0 {
		t.Fatalf("seed 0x25 has %d lazy edges; the exact counts need none", p.LazyEdges)
	}
	// Program.compile backs the frame of every odd-ID forking node with a
	// Scratch block, acquired and released once per execution.
	var scratch int64
	walk(p.Root, func(n *Node) {
		if n.forks() && n.ID%2 == 1 {
			scratch++
		}
	})
	runs := 200
	if testing.Short() {
		runs = 10
	}
	for i := 0; i < runs; i++ {
		counts := make([]uint32, p.Nodes)
		rt := core.NewRuntime(core.Config{
			Workers:    4,
			Deque:      core.DequeTHE,
			FrameBytes: p.Root.Frame,
			StackPages: harnessStackPages,
			Seed:       p.Seed ^ 0xC0FFEE,
		})
		check := func(when string) {
			t.Helper()
			st := rt.Stats()
			if st.Forks != int64(p.Forks) || st.Calls != int64(p.Calls) {
				t.Errorf("run %d, %s: Forks=%d Calls=%d, program has %d/%d",
					i, when, st.Forks, st.Calls, p.Forks, p.Calls)
			}
			if st.ArenaAcquires != scratch || st.ArenaReleases != scratch {
				t.Errorf("run %d, %s: ArenaAcquires=%d ArenaReleases=%d, program has %d",
					i, when, st.ArenaAcquires, st.ArenaReleases, scratch)
			}
		}
		rt.Start()
		if err := rt.Submit(p.Body(counts)).Err(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		check("after Job.Err")
		if err := rt.Close(context.Background()); err != nil {
			t.Fatalf("run %d: Close: %v", i, err)
		}
		check("after Close")
		v := &violations{seed: p.Seed, label: "counts"}
		v.checkCounts(p, counts)
		if err := v.err(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if t.Failed() {
			return
		}
	}
}

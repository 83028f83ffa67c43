package main

import "math/bits"

// hist records durations in nanoseconds. Every op is timed with the
// benchmark's own clock reads; the histogram only stores them. Values
// below 512 ns are kept exactly and larger ones in log-linear buckets 256
// to an octave, so a reported quantile is within 0.2% of the sample it
// stands for (the runtime's MetricsSink uses power-of-two buckets, which
// can move a p99 by 2x between identical runs). Memory is fixed, so
// millions of ops per run cost no more than a hundred.
type hist struct {
	counts [57 * histSub]uint64 // covers every uint64: 55 octaves above the exact range
	n      uint64
	sum    float64
	max    uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
)

func histBucket(v uint64) int {
	e := bits.Len64(v) - (histSubBits + 1)
	if e <= 0 {
		return int(v)
	}
	return e*histSub + int(v>>uint(e))
}

// histMid is the midpoint of bucket i: exact below 512 ns.
func histMid(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	e := i/histSub - 1
	lo := uint64(i-e*histSub) << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[histBucket(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// quantile returns the nearest-rank q-quantile in nanoseconds (0 when
// empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histMid(i)
		}
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// beyond counts samples strictly above the q-quantile's bucket, so a
// report can state how many samples a percentile rests on.
func (h *hist) beyond(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	var seen uint64
	for _, c := range h.counts {
		seen += c
		if seen >= rank {
			return h.n - seen
		}
	}
	return 0
}

// winP99 takes the p99 of each window of winOps consecutive samples,
// keeping only the window's largest winKeep values: the nearest-rank p99
// of 1000 samples is the 11th largest, with 10 samples beyond it.
type winP99 struct {
	top  [winKeep]int64 // the current window's largest values, ascending
	n    int
	p99s []float64
}

const (
	winOps  = 1000
	winKeep = 11
	// winCap is how many windows' p99s a winP99 holds without growing,
	// so a run's timed window allocates none of them.
	winCap = 1 << 17
)

func newWinP99() *winP99 { return &winP99{p99s: make([]float64, 0, winCap)} }

// reset empties w in place, keeping its storage.
func (w *winP99) reset() {
	w.top, w.n, w.p99s = [winKeep]int64{}, 0, w.p99s[:0]
}

func (w *winP99) add(v int64) {
	if k := min(w.n, winKeep); k < winKeep {
		i := k
		for ; i > 0 && w.top[i-1] > v; i-- {
			w.top[i] = w.top[i-1]
		}
		w.top[i] = v
	} else if v > w.top[0] {
		i := 0
		for ; i+1 < winKeep && w.top[i+1] < v; i++ {
			w.top[i] = w.top[i+1]
		}
		w.top[i] = v
	}
	if w.n++; w.n == winOps {
		w.p99s = append(w.p99s, float64(w.top[0]))
		w.n = 0
	}
}

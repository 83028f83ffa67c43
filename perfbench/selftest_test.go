package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// An injected wrong checksum and an injected root panic must each show up
// as a failed op and a non-zero exit, on every workload and in both modes.
func TestInjectedFailuresFailTheRun(t *testing.T) {
	for _, w := range workloadNames() {
		for _, how := range []string{"checksum", "panic"} {
			for _, tr := range []string{"0", "1"} {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w, "--seconds", "0.5", "--trace", tr,
					"--inject", how, "--spans", t.TempDir()}, &out, &errOut)
				r := lastResult(t, out.String())
				if code != 1 || r.Correct || r.Failed != 1 {
					t.Errorf("%s -inject %s -trace %s: exit %d, correct %v, failed %d; want 1, false, 1\n%s",
						w, how, tr, code, r.Correct, r.Failed, errOut.String())
				}
			}
		}
	}
}

// A clean run passes and prints exactly the metrics BENCHMARK.json lists
// for its mode.
func TestCleanRunPrintsListedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for tr, want := range map[string][]named{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "fj-fine", "--seconds", "0.5", "--trace", tr, "--spans", t.TempDir()}, &out, &errOut)
		r := lastResult(t, out.String())
		if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("-trace %s: exit %d, result %+v\n%s", tr, code, r, errOut.String())
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics, BENCHMARK.json lists %d", tr, len(r.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("-trace %s: metric %s = %+v (present %v), want unit %s", tr, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// The histogram's quantiles and the windowed p99 must agree with exact
// nearest-rank quantiles of the same samples to within the bucket width.
func TestQuantilesMatchSortedSamples(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	xs := make([]int64, 5*winOps)
	h, w := &hist{}, &winP99{}
	for i := range xs {
		xs[i] = int64(rnd.ExpFloat64() * 50000)
		h.add(xs[i])
		w.add(xs[i])
	}
	exact := func(ys []int64, q float64) float64 {
		ys = append([]int64(nil), ys...)
		sort.Slice(ys, func(a, b int) bool { return ys[a] < ys[b] })
		return float64(ys[int(q*float64(len(ys))+0.999999)-1])
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := h.quantile(q), exact(xs, q); got < want*0.996 || got > want*1.004 {
			t.Errorf("hist q%v = %v, want %v", q, got, want)
		}
	}
	if len(w.p99s) != 5 {
		t.Fatalf("%d windows, want 5", len(w.p99s))
	}
	for k, got := range w.p99s {
		if want := exact(xs[k*winOps:(k+1)*winOps], 0.99); got != want {
			t.Errorf("window %d p99 = %v, want %v", k, got, want)
		}
	}
}

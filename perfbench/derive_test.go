package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

func TestGMRESOverheadIsSolveMinusMatvec(t *testing.T) {
	if got := gmresOverhead(0.5, 0.45); got < 0.05-1e-15 || got > 0.05+1e-15 {
		t.Fatalf("gmresOverhead(0.5, 0.45) = %g, want 0.05", got)
	}
}

func TestPerRankNormalisesRankSummedTotals(t *testing.T) {
	// Two ranks each spend 1.5 s per step for 3 steps: the registry's
	// rank-summed total is 9 s, which is 1.5 s per rank-step, not 4.5 s.
	if got := perRank(9, 2, 3); got != 1.5 {
		t.Fatalf("perRank(9, 2, 3) = %g, want 1.5", got)
	}
	if got := perRank(9, 0, 3); got != 0 {
		t.Fatalf("perRank with no ranks = %g, want 0", got)
	}
	if got := perRank(9, 2, 0); got != 0 {
		t.Fatalf("perRank with no steps = %g, want 0", got)
	}
}

func TestCheckWithinWallCatchesRankSumming(t *testing.T) {
	wall := []float64{7, 7}
	perRankPhases := [][]float64{{4, 2, 0.5}, {4.5, 2, 0.3}}
	if faults := checkWithinWall("step 2", perRankPhases, wall); len(faults) != 0 {
		t.Fatalf("per-rank phases within the wall reported faults: %v", faults)
	}
	// Summing both ranks' boundary phase into rank 0 is the mistake the
	// check exists to catch.
	summed := [][]float64{{8.5, 2, 0.5}, {4.5, 2, 0.3}}
	faults := checkWithinWall("step 2", summed, wall)
	if len(faults) != 1 {
		t.Fatalf("rank-summed phases gave %d faults, want 1: %v", len(faults), faults)
	}
}

func loadReference(t *testing.T) reference {
	t.Helper()
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.NetworkY == nil || ref.Surrogate2k == nil || ref.Surrogate64 == nil {
		t.Fatalf("reference.json lacks a workload digest: %+v", ref)
	}
	if n := len(ref.NetworkY.GMRES); n < 2 || len(ref.NetworkY.Centroids) != n {
		t.Fatalf("network-y digest has %d iteration counts and %d centroid sets", n, len(ref.NetworkY.Centroids))
	}
	return ref
}

func copyBIE(d bieDigest) bieDigest {
	out := bieDigest{GMRES: append([]int(nil), d.GMRES...)}
	for _, step := range d.Centroids {
		out.Centroids = append(out.Centroids, append([][3]float64(nil), step...))
	}
	return out
}

func TestBIEDigestAcceptsReorderingAndRejectsPerturbation(t *testing.T) {
	ref := *loadReference(t).NetworkY

	if bad := compareBIE(ref, copyBIE(ref)); len(bad) != 0 {
		t.Fatalf("identical digest rejected: %v", bad)
	}
	// Reordered floating-point sums: every coordinate moves by ~1e-12 and
	// one solve takes one more iteration.
	reordered := copyBIE(ref)
	for _, step := range reordered.Centroids {
		for i := range step {
			step[i][0] += 1e-12
		}
	}
	reordered.GMRES[1]++
	if bad := compareBIE(ref, reordered); len(bad) != 0 {
		t.Fatalf("reordering-level differences rejected: %v", bad)
	}
	// A perturbed state: one cell of the last step displaced by 1e-4.
	last := len(ref.GMRES)
	perturbed := copyBIE(ref)
	perturbed.Centroids[last-1][0][2] += 1e-4
	if bad := compareBIE(ref, perturbed); len(bad) != 1 || bad[last] == "" {
		t.Fatalf("perturbed centroid gave %v, want one mismatch at step %d", bad, last)
	}
	// A truncated solve: far fewer GMRES iterations.
	truncated := copyBIE(ref)
	truncated.GMRES[0] /= 2
	if bad := compareBIE(ref, truncated); bad[1] == "" {
		t.Fatalf("truncated solve accepted: %v", bad)
	}
	// A run with fewer steps than the digest is compared on the steps it has.
	short := copyBIE(ref)
	short.GMRES, short.Centroids = short.GMRES[:1], short.Centroids[:1]
	if bad := compareBIE(ref, short); len(bad) != 0 {
		t.Fatalf("shorter run rejected: %v", bad)
	}
}

func TestSurrogateDigestRejectsTruncatedSolve(t *testing.T) {
	ref := *loadReference(t).Surrogate64
	if msg := compareSurrogate(ref, ref); msg != "" {
		t.Fatalf("identical digest rejected: %s", msg)
	}
	near := ref
	near.InletPressure *= 1 + 1e-12
	near.CGIters++
	if msg := compareSurrogate(ref, near); msg != "" {
		t.Fatalf("reordering-level differences rejected: %s", msg)
	}
	for name, bad := range map[string]surrogateDigest{
		"truncated fixed point": {Iters: ref.Iters / 2, CGIters: ref.CGIters / 2, InletPressure: ref.InletPressure},
		"truncated CG":          {Iters: ref.Iters, CGIters: ref.CGIters / 2, InletPressure: ref.InletPressure},
		"perturbed pressure":    {Iters: ref.Iters, CGIters: ref.CGIters, InletPressure: ref.InletPressure * (1 + 1e-6)},
	} {
		if compareSurrogate(ref, bad) == "" {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDirectModelSplitsByThreshold(t *testing.T) {
	// 10 wall nodes, 20 cell points, 2 ranks, 5 matvecs per rank over 1
	// step, threshold 200: wall-wall (100) and cell-wall (200) sums are
	// direct, the intercell sum (400) takes the tree.
	got := directModel(10, 20, 2, 5, 1, 200)
	want := directCount{calls: 2 * (1 + 5 + 1), tree: 2, pairs: 200 + 5*100 + 200}
	if got != want {
		t.Fatalf("directModel = %+v, want %+v", got, want)
	}
}

func TestOpCountIsFixedBySeconds(t *testing.T) {
	for _, c := range []struct {
		seconds  int
		nominal  float64
		lo, hi   int
		expected int
	}{
		{16, 8, 2, 9, 2},
		{1, 8, 2, 9, 2},
		{600, 8, 2, 9, 9},
		{16, 4, 2, 19, 4},
	} {
		if got := opCount(c.seconds, c.nominal, c.lo, c.hi); got != c.expected {
			t.Errorf("opCount(%d, %g, %d, %d) = %d, want %d", c.seconds, c.nominal, c.lo, c.hi, got, c.expected)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("empty median = %g", got)
	}
	if got := mean([]float64{7, 4, 4}); got != 5 {
		t.Fatalf("mean = %g", got)
	}
	if got := mean(nil); got != 0 {
		t.Fatalf("empty mean = %g", got)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the metric
// tables the benchmark reports from in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, benchmark reports %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %+v", i, m, d)
		}
	}
}

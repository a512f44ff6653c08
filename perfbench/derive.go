package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// perRank normalises a total summed over every rank and step into a value per
// rank-step. The program's telemetry registry and the benchmark's own rank
// spans both sum over ranks; reporting such a total as time per step would
// count each wall-clock second once per rank.
func perRank(total float64, ranks, steps int) float64 {
	if ranks <= 0 || steps <= 0 {
		return 0
	}
	return total / float64(ranks*steps)
}

// gmresOverhead is the part of a wall solve spent outside the operator's
// matvecs: Krylov orthogonalisation, the least-squares update and the
// solve's reductions.
func gmresOverhead(solveS, matvecS float64) float64 { return solveS - matvecS }

// checkWithinWall reports every rank whose summed phase seconds exceed that
// rank's own wall time for the step. Phase times are measured per rank, so
// they can never add up to more than the rank spent in the step; a violation
// means ranks were summed somewhere.
func checkWithinWall(label string, phaseS [][]float64, wallS []float64) []string {
	var out []string
	for r, ph := range phaseS {
		var sum float64
		for _, s := range ph {
			sum += s
		}
		if sum > wallS[r] {
			out = append(out, fmt.Sprintf("%s rank %d: phase seconds %.6f exceed the rank's step wall %.6f",
				label, r, sum, wallS[r]))
		}
	}
	return out
}

// Digest tolerances: tight enough that a skipped or truncated solve fails
// (cells move ~1e-2 per step and a skipped wall solve shifts them by about
// that), loose enough that reordering floating-point sums passes (which
// moves results by ~1e-12 and can flip one GMRES iteration at the
// tolerance boundary).
const (
	centroidTol    = 1e-5
	iterTol        = 1
	pressureRelTol = 1e-8
	cgIterRelTol   = 0.02
)

// bieDigest is the reference record of a BIE run: the GMRES iterations of
// each step of the trajectory and every cell centroid after it.
type bieDigest struct {
	GMRES     []int          `json:"gmres"`
	Centroids [][][3]float64 `json:"centroids"`
}

// surrogateDigest is the reference record of one surrogate solve.
type surrogateDigest struct {
	Iters         int     `json:"iters"`
	CGIters       int     `json:"cg_iters"`
	InletPressure float64 `json:"inlet_pressure"`
}

// compareBIE checks a trajectory against the reference over the steps both
// cover, so a run shorter than the reference is compared on the steps it
// reached, and returns one message per mismatching step (by 1-based step).
func compareBIE(ref, got bieDigest) map[int]string {
	bad := map[int]string{}
	n := len(ref.GMRES)
	if len(got.GMRES) < n {
		n = len(got.GMRES)
	}
	for k := 0; k < n; k++ {
		if d := got.GMRES[k] - ref.GMRES[k]; d > iterTol || d < -iterTol {
			bad[k+1] = fmt.Sprintf("GMRES iterations %d, reference %d", got.GMRES[k], ref.GMRES[k])
			continue
		}
		if len(got.Centroids[k]) != len(ref.Centroids[k]) {
			bad[k+1] = fmt.Sprintf("%d cells, reference %d", len(got.Centroids[k]), len(ref.Centroids[k]))
			continue
		}
		worst := 0.0
		for i, c := range got.Centroids[k] {
			for d := 0; d < 3; d++ {
				worst = math.Max(worst, math.Abs(c[d]-ref.Centroids[k][i][d]))
			}
		}
		if !(worst <= centroidTol) {
			bad[k+1] = fmt.Sprintf("centroids differ from the reference by %.3g (tolerance %g)", worst, centroidTol)
		}
	}
	return bad
}

// compareSurrogate checks one solve against the reference; "" when it agrees.
func compareSurrogate(ref, got surrogateDigest) string {
	if d := got.Iters - ref.Iters; d > iterTol || d < -iterTol {
		return fmt.Sprintf("outer iterations %d, reference %d", got.Iters, ref.Iters)
	}
	if math.Abs(float64(got.CGIters-ref.CGIters)) > cgIterRelTol*float64(ref.CGIters) {
		return fmt.Sprintf("CG iterations %d, reference %d", got.CGIters, ref.CGIters)
	}
	if rel := math.Abs(got.InletPressure-ref.InletPressure) / math.Abs(ref.InletPressure); !(rel <= pressureRelTol) {
		return fmt.Sprintf("inlet pressure %.15g, reference %.15g", got.InletPressure, ref.InletPressure)
	}
	return ""
}

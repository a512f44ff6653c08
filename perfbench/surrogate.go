package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rbcflow/internal/network"
	"rbcflow/internal/surrogate"
	"rbcflow/internal/telemetry"
)

// surrogateWorkload is a random-radius binary tree solved by the coupled
// flow ⇄ haematocrit ⇄ viscosity fixed point.
type surrogateWorkload struct {
	depth int
	// nominalS is the share of --seconds one solve stands for; it turns
	// --seconds into a fixed solve count. A solve takes about 3.5 s on
	// surrogate-2k and 5-6 s on surrogate-64k on a 2-core host.
	nominalS float64
	// setupReps is how many networks a run generates and times one by one
	// for setup_s, about a second's worth.
	setupReps int
}

var (
	surrogate2k  = surrogateWorkload{depth: 10, nominalS: 6, setupReps: 2500}
	surrogate64k = surrogateWorkload{depth: 15, nominalS: 6.4, setupReps: 60}
)

const (
	inletFlow = 2.0
	inletHct  = 0.3
	// conservationTol bounds the worst nodal flow imbalance and RBC-flux
	// imbalance of a solve, in absolute terms, as the program's own
	// surrogate tests bound them.
	conservationTol = 1e-12
)

// genTree generates the workload's network from the seed: the planar binary
// tree of the given depth with every segment radius scaled by U[0.7, 1.3],
// a flow inlet at the root and zero pressure at every leaf.
func genTree(depth int, seed int64) *network.Network {
	n := network.BinaryTree(network.TreeParams{Depth: depth, RootRadius: 1, RootLen: 5})
	rng := rand.New(rand.NewSource(seed))
	for i := range n.Segs {
		n.Segs[i].Radius *= 0.7 + 0.6*rng.Float64()
	}
	n.SetFlow(0, inletFlow)
	for _, t := range n.Terminals() {
		if t != 0 {
			n.SetPressure(t, 0)
		}
	}
	return n
}

// checkSolve is the per-solve correctness check; "" when the solve passed.
func checkSolve(i int, r *surrogate.Result) string {
	switch {
	case !r.Converged:
		return fmt.Sprintf("solve %d: fixed point did not converge (residual %g after %d iterations)", i, r.Residual, r.Iters)
	case !(r.FlowImbalance <= conservationTol):
		return fmt.Sprintf("solve %d: flow imbalance %g (bound %g)", i, r.FlowImbalance, conservationTol)
	case !(r.RBCImbalance <= conservationTol):
		return fmt.Sprintf("solve %d: RBC-flux imbalance %g (bound %g)", i, r.RBCImbalance, conservationTol)
	}
	return ""
}

func runSurrogate(cfg runConfig, wl surrogateWorkload) (*result, error) {
	nSolves := 1 + opCount(cfg.seconds, wl.nominalS, 2, 19)
	res := &result{metrics: map[string]float64{}}
	// setup_s is the median over single generations: a mean over many would
	// be dominated by the collection cycles their garbage triggers, whose
	// cost varies from process to process. The generations run before the
	// solves, which also steadies peak_rss_mb on surrogate-2k: a process that
	// starts with the dense solves peaks at 140 MB or 170 MB depending on when
	// the collector runs, and after the generations at 140 MB. (Collecting
	// the heap after each generation undoes that: the solves then peak at
	// 170-200 MB.)
	setupS := make([]float64, wl.setupReps)
	for i := range setupS {
		t := time.Now()
		genTree(wl.depth, cfg.seed)
		setupS[i] = time.Since(t).Seconds()
	}
	tRun := time.Now()
	n := genTree(wl.depth, cfg.seed)
	res.table = append(res.table, fmt.Sprintf("binary tree depth %d: %d nodes, %d segments, %d solves",
		wl.depth, len(n.Nodes), len(n.Segs), nSolves))
	ref := cfg.ref.surrogate(cfg.workload)
	var rec *spanRecorder
	if cfg.trace {
		rec = newSpanRecorder()
	}

	var solveS, iterS []float64
	var last *surrogate.Result
	for i := 1; i <= nSolves; i++ {
		end := stopwatch()
		if rec != nil {
			_, end = rec.start("surrogate.solve", i, 0, 0)
		}
		r, err := surrogate.Solve(n, surrogate.Params{InletHct: inletHct})
		sec := end()
		if err != nil {
			return nil, fmt.Errorf("solve %d: %w", i, err)
		}
		res.attempted++
		last = r
		// A failed check does not end the run: the later solves are still
		// made and timed, and each one that fails counts in failed.
		if msg := checkSolve(i, r); msg != "" {
			res.fail(msg)
		}
		if i == 1 {
			dig := surrogateDigest{Iters: r.Iters, CGIters: r.CGIters, InletPressure: r.Flow.P[0]}
			res.digest = dig
			if cfg.seed == defaultSeed && ref != nil {
				if msg := compareSurrogate(*ref, dig); msg != "" {
					res.fail("solve 1: reference digest: " + msg)
				}
			}
		}
		res.table = append(res.table, fmt.Sprintf("  solve %d: %.4f s, %d iterations, %d CG iterations, imbalance %.3g flow, %.3g RBC flux",
			i, sec, r.Iters, r.CGIters, r.FlowImbalance, r.RBCImbalance))
		if i > 1 {
			solveS = append(solveS, sec)
			iterS = append(iterS, sec/float64(r.Iters))
		}
	}
	runS := time.Since(tRun).Seconds()
	path := "dense LU"
	if last.Sparse {
		path = "sparse CG"
	}
	if cfg.trace {
		return res, traceSurrogate(cfg, n, last, iterS, rec, res)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(setupS)
	res.metrics["op_s"] = median(solveS)
	res.metrics["run_s"] = runS
	res.metrics["peak_rss_mb"] = rss
	res.table = append(res.table,
		row("setup_s", median(setupS), "s", fmt.Sprintf("network generation, median of %d generations", len(setupS))),
		"  step_s                            n/a (no coupled BIE step on this workload)",
		"  modeled_step_s                    n/a (no par world on this workload)",
		row("run_s", runS, "s", "one generation plus every solve"),
		row("surrogate_solve_s", median(solveS), "s", fmt.Sprintf("full coupled surrogate.Solve (%s), median of %d solves after the first (op_s)", path, len(solveS))),
		row("peak_rss_mb", rss, "MB", "VmHWM of this process"))
	return res, nil
}

// traceSurrogate reports the surrogate layers of a traced run: the solves'
// iteration counts and seconds per outer iteration, and one timed call into
// each network layer on the last solve's converged state: the dense flow
// solve (only where the solve took the dense path; it is cubic in the node
// count) and the haematocrit split. trace.overhead_ratio is 1: the traced
// solves carry only the benchmark's own span, as surrogate.Solve has no
// instrumentation to switch on.
func traceSurrogate(cfg runConfig, n *network.Network, r *surrogate.Result, iterS []float64, rec *spanRecorder, res *result) error {
	mt := res.metrics
	for _, d := range perLayer {
		mt[d.Name] = 0
	}
	mt["surrogate.outer_iters"] = float64(r.Iters)
	mt["surrogate.cg_iters"] = float64(r.CGIters)
	mt["surrogate.outer_iter_s"] = median(iterS)
	mt["trace.overhead_ratio"] = 1

	hprm := network.HaematocritParams{Inlet: inletHct}
	var splitS, flowS []float64
	for k := 0; k < 3; k++ {
		_, end := rec.start("network.hct_split", 0, 0, 0)
		h := network.SplitHaematocrit(n, r.Flow, hprm)
		splitS = append(splitS, end())
		if len(h) != len(n.Segs) {
			return fmt.Errorf("haematocrit split returned %d values for %d segments", len(h), len(n.Segs))
		}
		if r.Sparse {
			continue
		}
		_, end = rec.start("network.flow_solve", 0, 0, 0)
		f, err := network.SolveFlowVisc(n, r.Mu)
		flowS = append(flowS, end())
		if err != nil {
			return fmt.Errorf("flow solve: %w", err)
		}
		if d := math.Abs(f.P[0]-r.Flow.P[0]) / math.Abs(r.Flow.P[0]); !(d <= 1e-9) {
			res.benchFaults = append(res.benchFaults, fmt.Sprintf("the timed flow solve differs from the converged solve's pressure by %g", d))
		}
	}
	mt["network.hct_split_s"] = median(splitS)
	mt["network.flow_solve_s"] = median(flowS)

	// surrogate.Solve takes no telemetry registry, so the snapshot is empty.
	path, err := rec.write(cfg.workload, cfg.seed, conditions(cfg.workload), telemetry.Snapshot{})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.table = append(res.table, fmt.Sprintf("per-layer values over %d solves after the first; trace.overhead_ratio is 1 by definition here; trace written to %s", len(iterS), path))
	return nil
}

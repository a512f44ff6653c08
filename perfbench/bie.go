package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/fmm"
	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/scenario"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// bieWorkload is a steppable scenario at its defaults: one geometry and wall
// plan, and several cell populations on it, each stepped along its own
// trajectory.
type bieWorkload struct {
	scenario string
	ranks    int
	// populations is how many cell populations a run steps. A step's cost
	// depends on where the seed places the cells, so op_s averages over
	// placements.
	populations int
	// stepNominalS is the share of --seconds one warm step stands for; it
	// turns --seconds into a fixed step count. A step takes 4-7 s on a
	// 2-core host.
	stepNominalS float64
}

// bieWorkloads are the coupled-step workloads by name. The torus at
// max_cells=64 is not among them: at its default time step every step after
// the first runs on a diverged trajectory (see README.md).
var bieWorkloads = map[string]bieWorkload{
	"network-y": {scenario: "network-y", ranks: 1, populations: 3, stepNominalS: 4},
}

// tracedPopulations is how many populations a traced run steps.
const tracedPopulations = 2

// popSeedStride separates the seeds of a run's populations.
const popSeedStride = 1_000_000

// volumeDriftTol bounds the relative drift of the total cell volume from the
// seeded cells. A stable step drifts by 1-2.5% (the discrete cells relax
// from their seeded shape); an unstable step loses far more.
const volumeDriftTol = 0.05

// planWorkers is the wall-plan build's worker count: two, but never more
// than the host's cores.
func planWorkers() int { return min(2, runtime.NumCPU()) }

// bieSetup is a world ready to step: the scenario bundle and its cold plan.
type bieSetup struct {
	b             *scenario.Bundle
	plan          *bie.QuadPlan
	buildS, planS float64
}

// setupBIE generates the workload's inputs from the seed and builds the
// wall plan cold in memory. Every other parameter, the time step included,
// is the scenario's default, as a user running its command gets it.
func setupBIE(wl bieWorkload, seed int64) (*bieSetup, error) {
	t0 := time.Now()
	b, err := scenario.Build(wl.scenario, scenario.Params{Seed: seed})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	plan, src, err := b.Geom.WallPlan(planWorkers(), "", nil)
	if err != nil {
		return nil, fmt.Errorf("wall plan: %w", err)
	}
	if src != bie.PlanBuilt {
		return nil, fmt.Errorf("wall plan came from %q, want a cold build", src)
	}
	return &bieSetup{b: b, plan: plan, buildS: t1.Sub(t0).Seconds(), planS: time.Since(t1).Seconds()}, nil
}

// populations returns n cell populations on the set-up geometry: the set-up
// bundle and more seeded with seed + popSeedStride·j.
func populations(wl bieWorkload, s *bieSetup, seed int64, n int) ([]*scenario.Bundle, error) {
	pops := []*scenario.Bundle{s.b}
	sc := scenario.MustGet(wl.scenario)
	for j := 1; j < n; j++ {
		p := scenario.Params{Seed: seed + popSeedStride*int64(j)}
		p.Defaults()
		b, err := sc.Populate(s.b.Geom, p)
		if err != nil {
			return nil, fmt.Errorf("population %d: %w", j, err)
		}
		pops = append(pops, b)
	}
	return pops, nil
}

// world is one set of rank simulations stepped together along one
// trajectory. Each step runs in its own par world, so the step's modeled
// time is that world's ledger; a Simulation holds no communicator and steps
// in any world of its size.
type world struct {
	ranks  int
	surf   *bie.Surface
	sims   []*core.Simulation
	health *trace.Health
	ops    []*timedOp // traced world only
	rec    *spanRecorder
	v0     float64
	steps  int
	opBase int // added to the step number to give the run-wide operation
}

func newWorld(b *scenario.Bundle, plan *bie.QuadPlan, ranks int, reg *telemetry.Registry, rec *spanRecorder) (*world, error) {
	cfg := b.Config
	cfg.WallPlan = plan
	cfg.Telemetry = reg
	cfg.Health = trace.NewHealth(trace.HealthConfig{}, nil, reg)
	// Step replaces entries of the cell slice it was given, so each world
	// steps its own copies.
	cells := make([]*rbc.Cell, len(b.Cells))
	for i, c := range b.Cells {
		cells[i] = c.Copy()
	}
	w := &world{ranks: ranks, surf: b.Surf, sims: make([]*core.Simulation, ranks), health: cfg.Health, rec: rec}
	if rec != nil {
		w.ops = make([]*timedOp, ranks)
	}
	par.Run(ranks, par.SKX(), func(c *par.Comm) {
		sim := core.New(c, cfg, cells, b.Surf, b.G)
		if rec != nil {
			if sv, ok := sim.Solver.(*bie.Solver); ok {
				op := &timedOp{Solver: sv, rec: rec, rank: c.Rank()}
				sim.Solver = op
				w.ops[c.Rank()] = op
			}
		}
		w.sims[c.Rank()] = sim
	})
	for _, op := range w.ops {
		if op == nil && rec != nil {
			return nil, fmt.Errorf("wall operator is not a *bie.Solver; cannot time it")
		}
	}
	w.v0 = w.volume()
	return w, nil
}

func (w *world) volume() float64 {
	var v float64
	for _, s := range w.sims {
		for _, c := range s.Cells {
			v += c.Volume()
		}
	}
	return v
}

func (w *world) centroids() [][3]float64 {
	var out [][3]float64
	for _, s := range w.sims {
		out = append(out, s.Centroids()...)
	}
	return out
}

// stepResult is one coupled step as the benchmark saw it.
type stepResult struct {
	wallS  float64   // the step's par world, start to end
	rankS  []float64 // each rank's Step call
	stats  []core.StepStats
	ledger par.Ledger
}

func (w *world) step() stepResult {
	w.steps++
	n := w.opBase + w.steps
	st := stepResult{rankS: make([]float64, w.ranks), stats: make([]core.StepStats, w.ranks)}
	t0 := time.Now()
	pw := par.Run(w.ranks, par.SKX(), func(c *par.Comm) {
		r := c.Rank()
		end := stopwatch()
		if w.rec != nil {
			var id int
			id, end = w.rec.start("core.step", n, r, 0)
			w.ops[r].beginStep(n, id)
		}
		st.stats[r] = w.sims[r].Step(c)
		st.rankS[r] = end()
	})
	st.wallS = time.Since(t0).Seconds()
	st.ledger = pw.Ledger()
	return st
}

// check is the per-step correctness check: finite cell state, no health
// trip, bounded total cell-volume drift. It returns "" when the step passed.
func (w *world) check(st stepResult) string {
	for _, s := range w.sims {
		for ci, c := range s.Cells {
			for d := 0; d < 3; d++ {
				for _, x := range c.X[d] {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						return fmt.Sprintf("step %d: cell %d has a non-finite coordinate", w.steps, s.CellIDOffset+ci)
					}
				}
			}
		}
	}
	if w.health.Tripped() || st.stats[0].HealthTripped {
		return fmt.Sprintf("step %d: health monitor tripped: %v", w.steps, w.health.Verdicts())
	}
	if drift := w.volume()/w.v0 - 1; !(math.Abs(drift) <= volumeDriftTol) {
		return fmt.Sprintf("step %d: total cell volume drifted by %.3g (bound %g)", w.steps, drift, volumeDriftTol)
	}
	return ""
}

func runBIE(cfg runConfig, wl bieWorkload) (*result, error) {
	ranks := min(wl.ranks, runtime.NumCPU())
	// Each population's first step starts from its seeded cells with a cold
	// GMRES start; op_s times it together with the warm steps that follow.
	nSteps := 1 + opCount(cfg.seconds, wl.stepNominalS*float64(wl.populations), 1, 3)
	res := &result{metrics: map[string]float64{}}
	// One cold set-up per run: the wall-plan build costs 20-25 s, so
	// setup_s is steadied by the median over runs, not within one.
	tRun := time.Now()
	s, err := setupBIE(wl, cfg.seed)
	if err != nil {
		return nil, err
	}
	setupS := s.buildS + s.planS
	n := wl.populations
	if cfg.trace {
		// A traced run steps every population twice, untraced and traced,
		// so it steps fewer of them to stay about as long as an untraced
		// run: on a shared 2-vCPU host a traced run of three populations
		// took 95-135 s.
		n = min(n, tracedPopulations)
	}
	pops, err := populations(wl, s, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	res.table = append(res.table, fmt.Sprintf("%s at scenario defaults: %d patches, %d wall nodes, %d cells, dt %g, %d ranks, %d populations of %d steps",
		wl.scenario, s.b.Surf.F.NumPatches(), len(s.b.Surf.Pts), len(s.b.Cells), s.b.Config.Dt, ranks, len(pops), nSteps))
	if cfg.trace {
		return res, traceBIE(cfg, s, pops, nSteps, ranks, res)
	}

	// allS is every step of the run, the steps op_s times; stepS and
	// modeledS are the steps after each population's first.
	var allS, stepS, modeledS []float64
	var dig bieDigest
	for j, b := range pops {
		w, err := newWorld(b, s.plan, ranks, nil, nil)
		if err != nil {
			return nil, err
		}
		for k := 1; k <= nSteps; k++ {
			st := w.step()
			res.attempted++
			// A failed check does not end the run: the later steps are
			// still made and timed, and each one that fails counts in
			// failed.
			if msg := w.check(st); msg != "" {
				res.fail(fmt.Sprintf("population %d: %s", j, msg))
			}
			res.table = append(res.table, fmt.Sprintf("  population %d step %d: %.4f s real, %.4f s modeled, GMRES %d, contacts %d, volume %.4g of the seeded",
				j, k, st.wallS, st.ledger.VirtualTime, st.stats[0].GMRESIters, st.stats[0].Contacts, w.volume()/w.v0))
			allS = append(allS, st.wallS)
			if k > 1 {
				stepS = append(stepS, st.wallS)
				modeledS = append(modeledS, st.ledger.VirtualTime)
			}
			dig.GMRES = append(dig.GMRES, st.stats[0].GMRESIters)
			dig.Centroids = append(dig.Centroids, w.centroids())
		}
	}
	runS := time.Since(tRun).Seconds()
	res.digest = dig
	if cfg.seed == defaultSeed && cfg.ref.NetworkY != nil {
		for op, msg := range compareBIE(*cfg.ref.NetworkY, dig) {
			res.fail(fmt.Sprintf("step %d of the run: reference digest: %s", op, msg))
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// op_s is the mean over every step of the run, each population's cold
	// first step included. A warm step's GMRES iteration count depends on
	// where the seed placed the cells (6 to 15) while a cold step's does not
	// (18), and a shared 2-vCPU host's speed varies by up to a fifth from
	// step to step and run to run, so the mean of all the run's steps
	// spreads least across runs there: IQR/median 0.15 over sets of ten
	// resampled from 35 runs, against 0.17 for the median of the warm steps
	// and 0.17 for the median of the populations' per-step means.
	opS := mean(allS)
	res.metrics["setup_s"] = setupS
	res.metrics["op_s"] = opS
	res.metrics["run_s"] = runS
	res.metrics["peak_rss_mb"] = rss
	res.table = append(res.table,
		row("setup_s", setupS, "s", "scenario build + cold wall plan"),
		row("op_s", opS, "s", fmt.Sprintf("real wall time per coupled step, mean of all %d steps: %d populations of %d, each first step cold", len(allS), len(pops), nSteps)),
		row("step_s", median(stepS), "s", fmt.Sprintf("real wall time per coupled step, median of the %d steps after each population's first", len(stepS))),
		row("modeled_step_s", median(modeledS), "s", "par ledger virtual time per step, same steps as step_s; never combined with it"),
		row("run_s", runS, "s", "setup plus every step"),
		"  surrogate_solve_s                 n/a (no surrogate solve on this workload)",
		row("peak_rss_mb", rss, "MB", "VmHWM of this process"))
	return res, nil
}

func row(name string, v float64, unit, note string) string {
	return fmt.Sprintf("  %-32s %14.6g %-4s %s", name, v, unit, note)
}

// layerAcc accumulates the traced worlds' measured steps.
type layerAcc struct {
	steps                int
	phases               map[string]float64 // rank-summed core.step phases
	apply, eval, closest float64            // rank-summed span seconds
	applies, targets     int
	gmres, contacts, ncp int
	converged, solves    int
	// spans are the registry's span deltas over the measured steps.
	spanS map[string]float64
	spanN map[string]int64
}

// registrySpans are the program's telemetry spans the per-layer metrics use.
var registrySpans = []string{
	"bie.solve", "bie.matvec", "bie.matvec.far", "bie.matvec.near",
	"fmm.direct", "fmm.tree.build", "fmm.upward", "fmm.downward", "collision.resolve",
}

func (a *layerAcc) addRegistry(before, after telemetry.Snapshot) {
	for _, name := range registrySpans {
		b, _ := before.Span(name)
		x, _ := after.Span(name)
		a.spanS[name] += x.TotalS - b.TotalS
		a.spanN[name] += x.Count - b.Count
	}
}

// addStep folds one measured step of the traced world into the totals and
// returns the benchmark-arithmetic faults it finds.
func (a *layerAcc) addStep(label string, w *world, st stepResult) []string {
	a.steps++
	phase := make([][]float64, w.ranks)
	nested := make([][]float64, w.ranks)
	boundary := make([]float64, w.ranks)
	for r, ss := range st.stats {
		for name, sec := range ss.PhaseSec {
			a.phases[name] += sec
			phase[r] = append(phase[r], sec)
		}
		boundary[r] = ss.PhaseSec["boundary"]
		op := w.ops[r]
		nested[r] = []float64{op.applyS, op.evalS}
		a.apply += op.applyS
		a.eval += op.evalS
		a.applies += op.applies
		a.targets += len(op.targets)
	}
	a.gmres += st.stats[0].GMRESIters
	a.contacts += st.stats[0].Contacts
	a.ncp += st.stats[0].NCPIters
	for _, sr := range w.health.Solves() {
		if sr.Step == w.steps {
			a.solves++
			if sr.Converged {
				a.converged++
			}
		}
	}
	faults := append(checkWithinWall(label, phase, st.rankS), checkWithinWall(label, nested, boundary)...)
	sec, same := w.replayClosest()
	for _, x := range sec {
		a.closest += x
	}
	if !same {
		faults = append(faults, label+": the ClosestPoints replay differs from the step's closest points")
	}
	return faults
}

// traceBIE steps two worlds per population along the same trajectory: a
// plain one, set up as an untraced run, and a traced one whose wall operator
// is wrapped in timedOp and whose registry records the program's own
// telemetry. The plain worlds give the untraced step time for
// trace.overhead_ratio and the modeled time; the traced ones give the
// per-layer split.
func traceBIE(cfg runConfig, s *bieSetup, pops []*scenario.Bundle, nSteps, ranks int, res *result) error {
	rec := newSpanRecorder()
	reg := telemetry.NewRegistry()
	acc := layerAcc{phases: map[string]float64{}, spanS: map[string]float64{}, spanN: map[string]int64{}}
	// Every step of the run, as op_s takes them.
	var plainS, tracedS, modeledS []float64
	var ledger par.Ledger
	var traced *world
	for j, b := range pops {
		plain, err := newWorld(b, s.plan, ranks, nil, nil)
		if err != nil {
			return err
		}
		traced, err = newWorld(b, s.plan, ranks, reg, rec)
		if err != nil {
			return err
		}
		traced.opBase = j * nSteps
		diverged := false
		for k := 1; k <= nSteps; k++ {
			// Only the traced world records into reg, so the snapshots
			// around its step bracket exactly that step. Alternate which
			// world steps first, so neither always runs on the heap and
			// caches the other left behind.
			var pst, tst stepResult
			var before, after telemetry.Snapshot
			stepTraced := func() {
				before = reg.Snapshot()
				tst = traced.step()
				after = reg.Snapshot()
			}
			if (j*nSteps+k)%2 == 1 {
				pst = plain.step()
				stepTraced()
			} else {
				stepTraced()
				pst = plain.step()
			}
			res.attempted += 2
			label := fmt.Sprintf("population %d step %d", j, k)
			// As on an untraced run, a failed check does not end the run.
			for _, msg := range []string{plain.check(pst), traced.check(tst)} {
				if msg != "" {
					res.fail(fmt.Sprintf("population %d: %s", j, msg))
				}
			}
			if !diverged && !reflect.DeepEqual(plain.centroids(), traced.centroids()) {
				diverged = true
				res.benchFaults = append(res.benchFaults, label+": the traced world's cells differ from the untraced world's")
			}
			plainS = append(plainS, pst.wallS)
			tracedS = append(tracedS, tst.wallS)
			modeledS = append(modeledS, pst.ledger.VirtualTime)
			ledger.Add(pst.ledger)
			acc.addRegistry(before, after)
			res.benchFaults = append(res.benchFaults, acc.addStep(label, traced, tst)...)
		}
	}
	mt := res.metrics
	for _, d := range perLayer {
		mt[d.Name] = 0
	}
	m := acc.steps
	pr := func(total float64) float64 { return perRank(total, ranks, m) }
	if int(acc.spanN["bie.matvec"]) != acc.applies {
		res.benchFaults = append(res.benchFaults, fmt.Sprintf("registry counted %d matvecs, the timing decorator %d", acc.spanN["bie.matvec"], acc.applies))
	}
	nWall, nCell := len(s.b.Surf.Pts), acc.targets/m
	direct := directModel(nWall, nCell, ranks, acc.applies/ranks, m, s.b.Config.FMM.DirectBelow)
	if direct.calls != int(acc.spanN["fmm.direct"]) || direct.tree != int(acc.spanN["fmm.tree.build"]) {
		res.benchFaults = append(res.benchFaults, fmt.Sprintf("direct/tree call model (%d/%d) disagrees with the registry (%d/%d)",
			direct.calls, direct.tree, acc.spanN["fmm.direct"], acc.spanN["fmm.tree.build"]))
	}
	blocks, planBytes, nearBytes := planSizes(s.plan, s.b.Surf.NQ)
	nsDouble, nsStokeslet := kernelNsPerPair(s.b.Surf, s.b.G, traced, s.b.Config.Mu)

	mt["scenario.build_s"] = s.buildS
	mt["bie.plan.build_s"] = s.planS
	mt["bie.plan.blocks"] = float64(blocks)
	mt["bie.plan.bytes"] = float64(planBytes)
	for _, name := range []string{"forces", "boundary", "intercell", "implicit", "collision", "commit"} {
		mt["core."+name+"_s"] = pr(acc.phases[name])
	}
	mt["bie.solve_s"] = pr(acc.spanS["bie.solve"])
	mt["bie.gmres.iters"] = float64(acc.gmres) / float64(m)
	if acc.solves > 0 {
		mt["bie.gmres.converged_ratio"] = float64(acc.converged) / float64(acc.solves)
	}
	mt["bie.matvec_s"] = pr(acc.apply)
	mt["bie.gmres.overhead_s"] = gmresOverhead(mt["bie.solve_s"], mt["bie.matvec_s"])
	mt["bie.matvec.far_s"] = pr(acc.spanS["bie.matvec.far"])
	mt["bie.matvec.near_s"] = pr(acc.spanS["bie.matvec.near"])
	mt["bie.matvec.near.bytes"] = float64(nearBytes)
	if nearS := acc.spanS["bie.matvec.near"]; nearS > 0 {
		mt["bie.matvec.near.gbs"] = float64(nearBytes) * float64(acc.applies) / float64(ranks) / nearS / 1e9
	}
	mt["bie.evalvel_s"] = pr(acc.eval)
	mt["bie.evalvel.targets"] = float64(nCell)
	mt["forest.closest_s"] = pr(acc.closest)
	mt["core.boundary.unattributed_s"] = mt["core.boundary_s"] - mt["bie.solve_s"] - mt["bie.evalvel_s"] - mt["forest.closest_s"]
	mt["fmm.direct_s"] = pr(acc.spanS["fmm.direct"])
	mt["fmm.direct.calls"] = pr(float64(acc.spanN["fmm.direct"]))
	mt["fmm.direct.pairs"] = float64(direct.pairs) / float64(m)
	mt["kernels.stokes_double.ns_per_pair"] = nsDouble
	mt["kernels.stokeslet.ns_per_pair"] = nsStokeslet
	mt["fmm.tree_s"] = pr(acc.spanS["fmm.tree.build"] + acc.spanS["fmm.upward"] + acc.spanS["fmm.downward"])
	mt["fmm.tree.calls"] = pr(float64(acc.spanN["fmm.tree.build"]))
	mt["collision.resolve_s"] = pr(acc.spanS["collision.resolve"])
	mt["collision.contacts"] = float64(acc.contacts) / float64(m)
	mt["collision.ncp_iters"] = float64(acc.ncp) / float64(m)
	mt["modeled_step_s"] = mean(modeledS)
	mt["par.comm_bytes"] = float64(ledger.CommBytes) / float64(m)
	mt["par.phases"] = float64(ledger.Phases) / float64(m)
	for _, l := range parLabels {
		mt["par.modeled."+l+"_s"] = ledger.TimeByLabel[l] / float64(m)
	}
	mt["par.real_over_modeled"] = mean(plainS) / mean(modeledS)
	mt["trace.overhead_ratio"] = mean(tracedS) / mean(plainS)

	path, err := rec.write(cfg.workload, cfg.seed, conditions(cfg.workload), reg.Snapshot())
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.table = append(res.table, fmt.Sprintf("per-layer values over all %d traced steps, as op_s takes them; trace written to %s", m, path))
	return nil
}

// replayClosest repeats the step's Forest.ClosestPoints call on the cell
// points the step passed to EvalVelocity, timing each rank, and reports
// whether it reproduced the step's closest points exactly.
func (w *world) replayClosest() ([]float64, bool) {
	dEps := nearZoneRadius(w.surf)
	sec := make([]float64, w.ranks)
	same := make([]bool, w.ranks)
	par.Run(w.ranks, par.SKX(), func(c *par.Comm) {
		r := c.Rank()
		op := w.ops[r]
		_, end := w.rec.start("forest.closest.replay", w.opBase+w.steps, r, 0)
		cls := w.surf.F.ClosestPoints(c, op.targets, dEps)
		sec[r] = end()
		same[r] = reflect.DeepEqual(cls, op.cls)
	})
	for _, ok := range same {
		if !ok {
			return sec, false
		}
	}
	return sec, true
}

// nearZoneRadius is the closest-point search radius core.Step uses: the
// widest near zone over all patches.
func nearZoneRadius(s *bie.Surface) float64 {
	d := 0.0
	for pid := range s.F.Patches {
		d = math.Max(d, s.P.NearFactor*s.LMax[pid])
	}
	return d
}

// directCount is the computed direct-sum work of the measured steps.
type directCount struct {
	calls, tree int // rank-summed evaluator calls by path
	pairs       int // source-target pairs summed over every direct call
}

// directModel counts the far-field evaluations of the measured steps and
// splits them between the direct sum and the FMM tree by the evaluator's
// rule (direct when sources × global targets ≤ DirectBelow). Per step every
// rank makes: the free-cell field on the wall nodes, one wall far field per
// matvec, the wall velocity at the cell points, and the intercell sum.
// applies is the total matvec count per rank over the steps.
func directModel(nWall, nCell, ranks, applies, steps, directBelow int) directCount {
	var out directCount
	evals := []struct{ src, trg, perRank int }{
		{nCell, nWall, steps},   // u^fr on the wall
		{nWall, nWall, applies}, // matvec far field
		{nWall, nCell, steps},   // EvalVelocity far field
		{nCell, nCell, steps},   // intercell
	}
	for _, e := range evals {
		if e.src*e.trg <= directBelow || e.src == 0 {
			out.calls += ranks * e.perRank
			out.pairs += e.src * e.trg * e.perRank
		} else {
			out.tree += ranks * e.perRank
		}
	}
	return out
}

// planSizes returns the plan's correction-block count, its matrix bytes, and
// the bytes one near-field apply reads (each block's matrix plus the patch
// density segment it multiplies), all computed from the block sizes.
func planSizes(p *bie.QuadPlan, nq int) (blocks, planBytes, applyBytes int) {
	for _, row := range p.Corr {
		for _, cb := range row {
			blocks++
			planBytes += 8 * len(cb.M)
			applyBytes += 8 * (len(cb.M) + 3*nq)
		}
	}
	return blocks, planBytes, applyBytes
}

// kernelNsPerPair times fmm.Evaluator.Direct on the workload's own points:
// the double-layer tensor kernel over the wall nodes with the boundary data
// as density, and the Stokeslet over the cell points. Median of three.
func kernelNsPerPair(s *bie.Surface, g []float64, w *world, mu float64) (double, stokeslet float64) {
	q := make([]float64, 9*len(s.Pts))
	for k := range s.Pts {
		kernels.TensorStrength(q[9*k:9*k+9], g[3*k:3*k+3], s.Nrm[k], s.W[k])
	}
	dl := fmm.NewEvaluator(fmm.Config{Kernel: kernels.StokesDoubleTensor{}})
	double = nsPerPair(func() { dl.Direct(s.Pts, q, s.Pts) }, len(s.Pts)*len(s.Pts))

	var pts [][3]float64
	for _, sim := range w.sims {
		for _, c := range sim.Cells {
			pts = append(pts, c.Points()...)
		}
	}
	f := make([]float64, 3*len(pts))
	for i, p := range pts {
		copy(f[3*i:3*i+3], p[:])
	}
	st := fmm.NewEvaluator(fmm.Config{Kernel: kernels.Stokeslet{Mu: mu}})
	stokeslet = nsPerPair(func() { st.Direct(pts, f, pts) }, len(pts)*len(pts))
	return double, stokeslet
}

func nsPerPair(call func(), pairs int) float64 {
	var ts []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		call()
		ts = append(ts, float64(time.Since(t).Nanoseconds()))
	}
	return median(ts) / float64(pairs)
}

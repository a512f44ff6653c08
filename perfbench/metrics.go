package main

// metricDef names one reported metric. Moves, for a per-layer metric, is the
// end-to-end metric and workload a change to that layer should move; the
// traced run prints it beside each value so a per-layer gain can be traced
// to the end-to-end number it claims to improve.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json order.
// An operation ("op") is one coupled time step on network-y and one full
// coupled surrogate.Solve on the surrogate workloads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_s", Unit: "s", Better: "lower"},
	{Name: "run_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// Units of the rank-summed program measurements, normalised by rank and step.
const (
	perRankStep      = "s/rank-step"
	callsPerRankStep = "calls/rank-step"
)

// perLayer are the metrics a traced run reports, in BENCHMARK.json order.
// A metric whose layer does not run on a workload reads 0 there.
var perLayer = []metricDef{
	{"scenario.build_s", "s", "lower", "setup_s on network-y"},
	{"bie.plan.build_s", "s", "lower", "setup_s on network-y"},
	{"bie.plan.blocks", "count", "lower", "setup_s, peak_rss_mb on network-y"},
	{"bie.plan.bytes", "bytes", "lower", "peak_rss_mb on network-y"},

	{"core.forces_s", perRankStep, "lower", "op_s on network-y"},
	{"core.boundary_s", perRankStep, "lower", "op_s on network-y"},
	{"core.intercell_s", perRankStep, "lower", "op_s on network-y"},
	{"core.implicit_s", perRankStep, "lower", "op_s on network-y"},
	{"core.collision_s", perRankStep, "lower", "op_s on network-y"},
	{"core.commit_s", perRankStep, "lower", "op_s on network-y"},

	{"bie.solve_s", perRankStep, "lower", "op_s on network-y"},
	{"bie.gmres.iters", "count", "lower", "op_s on network-y"},
	{"bie.gmres.converged_ratio", "ratio", "higher", "op_s on network-y"},
	{"bie.gmres.overhead_s", perRankStep, "lower", "op_s on network-y"},
	{"bie.matvec_s", perRankStep, "lower", "op_s on network-y"},
	{"bie.matvec.far_s", perRankStep, "lower", "op_s on network-y"},
	{"bie.matvec.near_s", perRankStep, "lower", "op_s on network-y"},
	{"bie.matvec.near.bytes", "bytes/matvec", "lower", "op_s on network-y"},
	{"bie.matvec.near.gbs", "GB/s", "higher", "op_s on network-y"},

	{"bie.evalvel_s", perRankStep, "lower", "op_s on network-y"},
	{"bie.evalvel.targets", "count", "lower", "op_s on network-y"},
	{"forest.closest_s", perRankStep, "lower", "op_s on network-y"},
	{"core.boundary.unattributed_s", perRankStep, "lower", "op_s on network-y"},

	{"fmm.direct_s", perRankStep, "lower", "op_s on network-y"},
	{"fmm.direct.calls", callsPerRankStep, "lower", "op_s on network-y"},
	{"fmm.direct.pairs", "pairs/step", "lower", "op_s on network-y"},
	{"kernels.stokes_double.ns_per_pair", "ns", "lower", "op_s on network-y"},
	{"kernels.stokeslet.ns_per_pair", "ns", "lower", "op_s on network-y"},
	{"fmm.tree_s", perRankStep, "lower", "op_s on a crowded workload such as the torus; 0 on network-y, whose sums are all direct"},
	{"fmm.tree.calls", callsPerRankStep, "lower", "op_s on a crowded workload such as the torus; 0 on network-y, whose sums are all direct"},

	{"collision.resolve_s", perRankStep, "lower", "op_s on network-y"},
	{"collision.contacts", "count/step", "lower", "op_s on a crowded workload such as the torus; 0 on network-y, whose cells do not touch"},
	{"collision.ncp_iters", "count/step", "lower", "op_s on network-y"},

	{"modeled_step_s", "s", "lower", "op_s on network-y (modeled, never combined with op_s)"},
	{"par.comm_bytes", "bytes/step", "lower", "modeled_step_s on network-y"},
	{"par.phases", "count/step", "lower", "modeled_step_s on network-y"},
	{"par.modeled.COL_s", "s/step", "lower", "modeled_step_s on network-y"},
	{"par.modeled.BIE-solve_s", "s/step", "lower", "modeled_step_s on network-y"},
	{"par.modeled.BIE-FMM_s", "s/step", "lower", "modeled_step_s on network-y"},
	{"par.modeled.Other-FMM_s", "s/step", "lower", "modeled_step_s on network-y"},
	{"par.modeled.Other_s", "s/step", "lower", "modeled_step_s on network-y"},
	{"par.real_over_modeled", "ratio", "lower", "op_s on network-y (about 1 at its one rank)"},

	{"surrogate.outer_iters", "count", "lower", "op_s on surrogate-2k and surrogate-64k"},
	{"surrogate.cg_iters", "count", "lower", "op_s on surrogate-64k"},
	{"surrogate.outer_iter_s", "s", "lower", "op_s on surrogate-2k and surrogate-64k"},
	{"network.flow_solve_s", "s", "lower", "op_s on surrogate-2k"},
	{"network.hct_split_s", "s", "lower", "op_s on surrogate-2k and surrogate-64k"},

	{"trace.overhead_ratio", "ratio", "lower", "none: traced op_s over untraced op_s in one run"},
}

// parLabels are the par ledger's timing categories (paper §5.2).
var parLabels = []string{"COL", "BIE-solve", "BIE-FMM", "Other-FMM", "Other"}

// Command perfbench is rbcflow's end-to-end benchmark. It generates every
// input from --seed, drives the program through its public entry points
// (scenario.Build, Geom.WallPlan, par.Run + core.New + Simulation.Step,
// surrogate.Solve), checks each operation's output, and prints a table of
// results followed by one JSON line. With --trace 1 it times each layer by
// wrapping the calls into it and prints the per-layer metrics instead.
//
//	bash perfbench/run.sh --workload network-y --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, metrics and measurement
// conditions.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultSeed is the seed whose outputs are compared against reference.json.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// reference holds the committed digests of the default seed, by workload.
type reference struct {
	NetworkY    *bieDigest       `json:"network-y,omitempty"`
	Surrogate2k *surrogateDigest `json:"surrogate-2k,omitempty"`
	Surrogate64 *surrogateDigest `json:"surrogate-64k,omitempty"`
}

// surrogate is the digest of the named surrogate workload.
func (r reference) surrogate(workload string) *surrogateDigest {
	if workload == "surrogate-64k" {
		return r.Surrogate64
	}
	return r.Surrogate2k
}

// runConfig is what one invocation asks for.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ref      reference
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	// problems are the failed checks, one line each.
	problems []string
	// benchFaults are violations of the benchmark's own arithmetic checks;
	// they make the run incorrect without failing an operation.
	benchFaults []string
	// metrics are the reported values by name: the end-to-end set on an
	// untraced run, the per-layer set on a traced one.
	metrics map[string]float64
	// table holds extra human-readable lines printed before the metrics.
	table []string
	// digest is the run's record for the reference comparison.
	digest any
}

func (r *result) fail(msg string) {
	r.failed++
	r.problems = append(r.problems, msg)
}

var workloads = map[string]func(runConfig) (*result, error){
	"network-y":     func(c runConfig) (*result, error) { return runBIE(c, bieWorkloads["network-y"]) },
	"surrogate-2k":  func(c runConfig) (*result, error) { return runSurrogate(c, surrogate2k) },
	"surrogate-64k": func(c runConfig) (*result, error) { return runSurrogate(c, surrogate64k) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "nominal measured seconds; fixes the operation count")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	updateRef := fs.Bool("update-reference", false, "rewrite perfbench/reference.json for this workload from this run (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*workload]
	all := *workload == "all" && !*updateRef
	if !(ok || all) || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s, or all), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if *updateRef && *seed != defaultSeed {
		fmt.Fprintf(stderr, "perfbench: -update-reference needs the default seed %d\n", defaultSeed)
		return 2
	}
	if all {
		return runAll(stdout, stderr, *seed, *seconds, *traceFlag)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if err := json.Unmarshal(referenceJSON, &cfg.ref); err != nil {
		fmt.Fprintf(stderr, "perfbench: reference.json: %v\n", err)
		return 1
	}
	if *updateRef {
		// Regenerate without comparing against the digest being replaced.
		cfg.ref = reference{}
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, *traceFlag)
	fmt.Fprintf(stdout, "conditions: %s\n", formatConditions(conditions(cfg.workload)))
	res, err := runW(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *updateRef {
		if err := writeReference(cfg.workload, res.digest); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED CHECK: %s\n", p)
	}
	for _, p := range res.benchFaults {
		fmt.Fprintf(stderr, "perfbench: BENCHMARK FAULT: %s\n", p)
	}
	return report(stdout, stderr, cfg, res)
}

// runAll runs every workload in turn, each in a fresh process of this
// program so its peak memory is its own, and stops at the first that fails.
func runAll(stdout, stderr io.Writer, seed int64, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, name := range workloadNames() {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// conditions are the measurement conditions every run prints and every
// trace file records.
func conditions(workload string) map[string]any {
	m := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
	}
	if wl, ok := bieWorkloads[workload]; ok {
		m["ranks"] = min(wl.ranks, runtime.NumCPU())
		m["plan_workers"] = planWorkers()
		m["health_monitor"] = "on (trace.HealthConfig defaults, as every CLI attaches it)"
		m["wall_plan"] = "cold: built in memory, no disk cache"
	}
	return m
}

func formatConditions(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, m[k])
	}
	return strings.Join(parts, " ")
}

// report prints the human-readable table and the JSON result line.
func report(stdout, stderr io.Writer, cfg runConfig, res *result) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, l := range res.table {
		fmt.Fprintln(stdout, l)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metricOut{}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", d.Name, v)
			return 1
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
		if cfg.trace {
			fmt.Fprintf(stdout, "  %-36s %16s %-16s moves %s\n", d.Name, strconv.FormatFloat(v, 'g', 6, 64), d.Unit, d.Moves)
		}
	}
	correct := res.failed == 0 && len(res.benchFaults) == 0
	fmt.Fprintf(stdout, "attempted=%d failed=%d failed_ratio=%s correct=%v seed=%d\n",
		res.attempted, res.failed, strconv.FormatFloat(float64(res.failed)/float64(max(res.attempted, 1)), 'g', 6, 64),
		correct, cfg.seed)
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// writeReference replaces this workload's digest in perfbench/reference.json
// (relative to the checkout root the benchmark runs from).
func writeReference(workload string, digest any) error {
	const path = "perfbench/reference.json"
	cur, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(cur, &all); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	b, err := json.Marshal(digest)
	if err != nil {
		return err
	}
	all[workload] = b
	// One line per workload keeps the file short and its diffs readable.
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	var out strings.Builder
	out.WriteString("{\n")
	for i, n := range names {
		sep := ","
		if i == len(names)-1 {
			sep = ""
		}
		fmt.Fprintf(&out, " %q: %s%s\n", n, all[n], sep)
	}
	out.WriteString("}\n")
	return os.WriteFile(path, []byte(out.String()), 0o644)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// opCount fixes the number of operations a run makes from --seconds and the
// workload's nominal seconds per operation, so every run of one workload does
// the same work and run_s compares like with like. lo and hi bound it.
func opCount(seconds int, nominalS float64, lo, hi int) int {
	n := int(math.Round(float64(seconds) / nominalS))
	return min(max(n, lo), hi)
}

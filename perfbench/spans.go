package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
)

// span is one timed call across a layer boundary. Spans of one operation
// share Op (the 1-based step or solve); Parent is the enclosing span's ID
// (0 at the top).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// spanRecorder keeps the benchmark's spans in memory until the run ends.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// start opens a span and returns its ID and a function that closes it and
// returns its duration in seconds. Safe for concurrent use by rank
// goroutines.
func (r *spanRecorder) start(name string, op, rank, parent int) (int, func() float64) {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, Rank: rank})
	r.mu.Unlock()
	t := time.Now()
	return id, func() float64 {
		d := time.Since(t)
		r.mu.Lock()
		r.spans[id-1].Start = t.Sub(r.t0).Nanoseconds()
		r.spans[id-1].Dur = d.Nanoseconds()
		r.mu.Unlock()
		return d.Seconds()
	}
}

// stopwatch starts an untraced timer; the returned function gives the seconds
// since, like the end function of a span.
func stopwatch() func() float64 {
	t := time.Now()
	return func() float64 { return time.Since(t).Seconds() }
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Conditions map[string]any     `json:"conditions"`
	Spans      []span             `json:"spans"`
	Registry   telemetry.Snapshot `json:"registry"`
}

// traceDir receives one trace file per traced run, under the checkout the
// benchmark runs from.
const traceDir = ".bench_build/trace"

func (r *spanRecorder) write(workload string, seed int64, cond map[string]any, reg telemetry.Snapshot) (string, error) {
	r.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Conditions: cond, Spans: r.spans, Registry: reg}
	b, err := json.Marshal(tf)
	r.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// timedOp decorates a rank's wall operator to time the two calls a coupled
// step makes into it: Apply (every GMRES matvec) and EvalVelocity (the wall
// velocity at the cell points). Embedding the *bie.Solver keeps every other
// method, including the TelemetryRegistry and Health probes bie.Solve makes,
// so the health monitor's solve checks stay attached. One timedOp belongs to
// one rank goroutine; the benchmark reads its fields after par.Run returns.
type timedOp struct {
	*bie.Solver
	rec        *spanRecorder
	rank       int
	op, parent int // current step and its span, set before each Step

	applyS, evalS float64 // seconds in this step
	applies       int
	targets       [][3]float64 // EvalVelocity's targets and closest points this step
	cls           []forest.Closest
}

func (o *timedOp) beginStep(op, parent int) {
	o.op, o.parent = op, parent
	o.applyS, o.evalS, o.applies = 0, 0, 0
	o.targets, o.cls = nil, nil
}

func (o *timedOp) Apply(c *par.Comm, phiLocal []float64) []float64 {
	_, end := o.rec.start("bie.matvec", o.op, o.rank, o.parent)
	out := o.Solver.Apply(c, phiLocal)
	o.applyS += end()
	o.applies++
	return out
}

func (o *timedOp) EvalVelocity(c *par.Comm, phiLocal []float64, targets [][3]float64, cls []forest.Closest) []float64 {
	_, end := o.rec.start("bie.evalvel", o.op, o.rank, o.parent)
	out := o.Solver.EvalVelocity(c, phiLocal, targets, cls)
	o.evalS += end()
	o.targets, o.cls = targets, cls
	return out
}

package main

import (
	"math"
	"time"

	"borgmoea/internal/operators"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// The wrappers below sit around the public interfaces the benchmark
// hands to the program. They change no result: each forwards every
// call unchanged and only reads the clock. None is safe for concurrent
// use: each is called by one goroutine at a time (the DES engine hands
// control from process to process over channels), or a workload gives
// each calling goroutine its own.

// clock is a monotonic nanosecond clock with a fixed origin.
type clock struct{ origin time.Time }

func newClock() clock { return clock{origin: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.origin)) }

// gapRecorder keeps turnaround samples in nanoseconds, saturating at
// the uint32 range (about 4.3 s), in a buffer allocated once per run
// so that recording does not count as the program's allocation.
type gapRecorder struct{ gaps []uint32 }

func (g *gapRecorder) add(ns int64) {
	g.gaps = append(g.gaps, uint32(min(ns, math.MaxUint32)))
}

// timedProblem wraps a Problem and records, per evaluation, its
// duration and the gap since the previous evaluation on the same
// worker ended: the turnaround a worker feels.
type timedProblem struct {
	problems.Problem
	clk        clock
	turn       *gapRecorder // nil: do not record turnaround
	lastEnd    int64        // end of the previous evaluation; 0 before the first
	firstStart int64        // start of the first evaluation
	nanos      int64
	calls      int64
}

func (p *timedProblem) Evaluate(vars, objs []float64) {
	start := p.clk.now()
	if p.lastEnd == 0 {
		p.firstStart = start
	} else if p.turn != nil {
		p.turn.add(start - p.lastEnd)
	}
	p.Problem.Evaluate(vars, objs)
	p.lastEnd = p.clk.now()
	p.nanos += p.lastEnd - start
	p.calls++
}

// timedOperator wraps one variation operator of the Borg ensemble.
// Apply time is also added to *shared, so that a span around Suggest
// can subtract the operator time it contains.
type timedOperator struct {
	operators.Operator
	shared *int64
	nanos  int64
	calls  int64
}

func (o *timedOperator) Apply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	start := time.Now()
	out := o.Operator.Apply(parents, lo, hi, r)
	d := int64(time.Since(start))
	o.nanos += d
	o.calls++
	*o.shared += d
	return out
}

// operatorKeys are the metric names of operators.BorgEnsemble's
// members, in ensemble order.
var operatorKeys = []string{"sbx", "de", "pcx", "spx", "undx", "um"}

// timedEnsemble returns operators.BorgEnsemble with every member
// wrapped, and the wrappers in the same order.
func timedEnsemble(shared *int64) ([]operators.Operator, []*timedOperator) {
	ens := operators.BorgEnsemble()
	timed := make([]*timedOperator, len(ens))
	for i, op := range ens {
		timed[i] = &timedOperator{Operator: op, shared: shared}
		ens[i] = timed[i]
	}
	return ens, timed
}

// evalClock wraps the T_F distribution of a virtual-time run. The
// drivers draw T_F once per simulated evaluation, right after it
// starts, so the wall-clock gap between consecutive draws is the time
// the simulator took to turn one evaluation around and start the next.
type evalClock struct {
	stats.Distribution
	clk   clock
	turn  *gapRecorder
	last  int64 // time of the previous draw; 0 before the first
	first int64 // time of the first draw
}

func (c *evalClock) Sample(r *rng.Source) float64 {
	now := c.clk.now()
	if c.last == 0 {
		c.first = now
	} else {
		c.turn.add(now - c.last)
	}
	c.last = now
	return c.Distribution.Sample(r)
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/model"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// workload is one set of inputs the benchmark runs. rep performs one
// complete, fixed-size run of it; a benchmark run repeats rep until
// its time is up.
type workload struct {
	name string
	why  string
	// problem names the problem whose analytic front scores the final
	// archive.
	problem string
	// evals is the evaluation budget of one repetition.
	evals uint64
	// probes is how many extra set-ups a run times, each a repetition
	// cut to probeEvals evaluations, because the full repetitions are
	// too long to give more than a few set-up samples.
	probes     int
	probeEvals uint64
	// turnCap sizes the turnaround buffer: samples one repetition
	// records at most.
	turnCap int
	rep     func(in *inputs, traced bool, evals uint64) (*rep, error)
	// tol is the front quality a repetition must reach.
	tol tolerance
}

// inputs are what a benchmark run generates from its seed, plus the
// buffers it reuses across repetitions.
type inputs struct {
	seed uint64
	turn gapRecorder
}

// searchSeed seeds the searches of serial-dtlz2 and des-uf11-p1024,
// whatever the run's seed. At N = 100k the cost of a Borg run follows
// its restart trajectory: on serial DTLZ2, seeds 1 to 5 take 7.2 to
// 13.2 s, with 34k to 64k of the 100k evaluations spent on restart
// injections; on the UF11 cell, seeds run at 11k to 19k evaluations
// per second. Runs with different seeds would measure different work.
// tcp-dtlz2-2w and sim-table2, whose cost does not depend on the
// seed, take the run's seed.
const searchSeed = 1

// rep is the outcome of one repetition.
type rep struct {
	traced bool
	// setup holds set-up times in seconds: from the start of building
	// the workload's inputs to the start of its first evaluation.
	setup []float64
	// wall is the time from the first evaluation's start to the
	// entry point's return, in seconds. segments, when set, splits it
	// into parts that are the same work in every repetition.
	wall     float64
	segments []float64
	evals    uint64
	// alloc is the heap bytes allocated over the repetition, heapLive
	// the largest live heap a collection found during it.
	alloc, heapLive uint64
	// turnP50, turnP99 are turnaround percentiles in µs over turnN
	// samples.
	turnP50, turnP99 float64
	turnN            int
	// front is the final archive's objectives (nil for sim-table2),
	// digest its serialised hash.
	front  [][]float64
	digest [32]byte
	// wasted counts lost, duplicate and resubmitted evaluations.
	wasted uint64
	// failures are failed correctness checks.
	failures []string
	// layer holds the per-layer metrics of a traced repetition.
	layer map[string]float64
}

func (r *rep) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// turnWindows is how many consecutive windows a repetition's
// turnaround samples are cut into for the p99.
const turnWindows = 10

// finishTurnaround computes the turnaround percentiles of the samples
// recorded so far, which are in the order they were taken. The p50 is
// over all of them. The p99 is the median of the p99s of windows
// consecutive windows, so that a burst of load from outside the
// program, which inflates the tail of a few windows, does not set it.
func (r *rep) finishTurnaround(g *gapRecorder, windows int) {
	r.turnN = len(g.gaps)
	if !tailPercentile(r.turnN/windows, 0.99) {
		r.failf("%d turnaround samples are too few for a windowed p99", r.turnN)
	}
	n := len(g.gaps) / windows
	var p99s []float64
	for w := 0; n > 0 && w < windows; w++ {
		win := g.gaps[w*n : (w+1)*n]
		slices.Sort(win)
		p99s = append(p99s, percentile(win, 0.99))
	}
	slices.Sort(g.gaps)
	r.turnP50 = percentile(g.gaps, 0.50) / 1e3
	r.turnP99 = median(p99s) / 1e3
}

// heapAllocated returns the cumulative bytes allocated by the process.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// memWatch measures a repetition's memory from outside the program:
// the bytes it allocates, and the largest live heap the collector
// found, polled every 10 ms and read once more after a collection
// forced at the end. A repetition starts right after a forced
// collection, so the live heap it sees is its own.
type memWatch struct {
	alloc0          uint64
	done            chan struct{}
	peak            chan uint64
	once            sync.Once
	alloc, peakLive uint64
}

func watchMemory() *memWatch {
	w := &memWatch{alloc0: heapAllocated(), done: make(chan struct{}), peak: make(chan uint64)}
	// The first reading and the ticker are made before returning, so
	// that the poller is idle while the caller times its set-up.
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	peak := live[0].Value.Uint64()
	tick := time.NewTicker(10 * time.Millisecond)
	go func() {
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-w.done:
				// stop has just collected: this is the live heap at
				// the end, with the repetition's final state still
				// held. The search workloads' restart queues grow
				// until the end, so it is their peak, which the
				// collector's own timing would otherwise miss by up
				// to a fifth.
				metrics.Read(live)
				w.peak <- max(peak, live[0].Value.Uint64())
				return
			}
			metrics.Read(live)
			peak = max(peak, live[0].Value.Uint64())
		}
	}()
	return w
}

// stop ends the watch, once, and returns the bytes allocated and the
// peak live heap since watchMemory. A repetition defers it, so that an
// early return stops the poller too.
func (w *memWatch) stop() (alloc, peakLive uint64) {
	w.once.Do(func() {
		w.alloc = heapAllocated() - w.alloc0
		runtime.GC()
		close(w.done)
		w.peakLive = <-w.peak
	})
	return w.alloc, w.peakLive
}

// checkBudget records the completion check every workload shares.
func (r *rep) checkBudget(completed bool, got, want uint64) {
	if !completed || got != want {
		r.failf("run completed=%v with %d of %d evaluations accepted", completed, got, want)
	}
}

// coreGauges accumulates the algorithm's public getters once per
// accepted evaluation.
type coreGauges struct {
	n                              float64
	pop, arch, pending, tournament float64
}

func (g *coreGauges) observe(b *core.Borg) {
	g.n++
	g.pop += float64(b.Population().Size())
	g.arch += float64(b.Archive().Size())
	g.pending += float64(b.PendingInjections())
	g.tournament += float64(b.TournamentSize())
}

func (g *coreGauges) report(layer map[string]float64, b *core.Borg) {
	if g.n > 0 {
		layer["core.population.size_mean"] = g.pop / g.n
		layer["core.archive.size_mean"] = g.arch / g.n
		layer["core.pending.depth_mean"] = g.pending / g.n
		layer["core.tournament_size_mean"] = g.tournament / g.n
	}
	layer["core.restarts"] = float64(b.Restarts())
	if e := b.Evaluations(); e > 0 {
		layer["core.archive.improvements_per_eval"] = float64(b.Archive().Improvements()) / float64(e)
	}
}

func reportOperators(layer map[string]float64, ops []*timedOperator) {
	for i, op := range ops {
		layer["operators."+operatorKeys[i]+".calls"] = float64(op.calls)
		if op.calls > 0 {
			layer["operators."+operatorKeys[i]+".ns"] = float64(op.nanos) / float64(op.calls)
		}
	}
}

func reportProblem(layer map[string]float64, ps ...*timedProblem) {
	var nanos, calls int64
	for _, p := range ps {
		nanos += p.nanos
		calls += p.calls
	}
	layer["problems.evaluate.calls"] = float64(calls)
	if calls > 0 {
		layer["problems.evaluate.ns"] = float64(nanos) / float64(calls)
	}
}

// finishArchive records the final archive's objectives and digest.
func (r *rep) finishArchive(a *core.Archive) {
	r.front = a.Objectives()
	d, err := archiveDigest(a)
	if err != nil {
		r.failf("serialising the archive: %v", err)
	}
	r.digest = d
}

// ---- serial-dtlz2 ----

const (
	serialObjs  = 5
	serialEps   = 0.1
	serialEvals = 100_000
)

// serialRep drives Suggest → EvaluateSolution → Accept itself. Traced,
// it wraps the problem and the operators and times each Suggest
// (offspring or restart injection) and Accept call.
func serialRep(in *inputs, traced bool, evals uint64) (*rep, error) {
	r := &rep{traced: traced, evals: evals}
	in.turn.gaps = in.turn.gaps[:0]
	clk := newClock()
	mem := watchMemory()
	defer mem.stop()
	start := clk.now()

	var prob problems.Problem = problems.NewDTLZ2(serialObjs)
	var cfg core.Config
	var tp *timedProblem
	var ops []*timedOperator
	var opNanos int64
	if traced {
		tp = &timedProblem{Problem: prob, clk: clk}
		prob = tp
		cfg.Operators, ops = timedEnsemble(&opNanos)
	}
	cfg.Epsilons = core.UniformEpsilons(serialObjs, serialEps)
	cfg.Seed = searchSeed
	b, err := core.New(prob, cfg)
	if err != nil {
		return nil, err
	}

	var (
		gauges                                coreGauges
		offNs, offCalls, injNs, injCalls      int64
		acceptNs, acceptCalls, first, lastEnd int64
	)
	for b.Evaluations() < evals {
		var s *core.Solution
		if traced {
			pending, op0 := b.PendingInjections(), opNanos
			t0 := clk.now()
			s = b.Suggest()
			self := clk.now() - t0 - (opNanos - op0)
			switch {
			case b.PendingInjections() < pending:
				injNs += self
				injCalls++
			case s.Operator >= 0:
				offNs += self
				offCalls++
			}
		} else {
			s = b.Suggest()
		}
		evalStart := clk.now()
		if lastEnd == 0 {
			first = evalStart
		} else {
			in.turn.add(evalStart - lastEnd)
		}
		core.EvaluateSolution(prob, s)
		lastEnd = clk.now()
		if traced {
			b.Accept(s)
			acceptNs += clk.now() - lastEnd
			acceptCalls++
			gauges.observe(b)
		} else {
			b.Accept(s)
		}
	}
	end := clk.now()
	r.alloc, r.heapLive = mem.stop()
	r.setup = []float64{seconds(first - start)}
	r.wall = seconds(end - first)
	r.finishTurnaround(&in.turn, turnWindows)
	r.checkBudget(true, b.Evaluations(), evals)
	r.finishArchive(b.Archive())

	if traced {
		r.layer = map[string]float64{
			"core.suggest.offspring.calls": float64(offCalls),
			"core.suggest.injection.calls": float64(injCalls),
			"core.accept.calls":            float64(acceptCalls),
		}
		if offCalls > 0 {
			r.layer["core.suggest.offspring.ns"] = float64(offNs) / float64(offCalls)
		}
		if injCalls > 0 {
			r.layer["core.suggest.injection.ns"] = float64(injNs) / float64(injCalls)
		}
		if acceptCalls > 0 {
			r.layer["core.accept.ns"] = float64(acceptNs) / float64(acceptCalls)
		}
		gauges.report(r.layer, b)
		reportOperators(r.layer, ops)
		reportProblem(r.layer, tp)
	}
	return r, nil
}

// ---- des-uf11-p1024 ----

const (
	desProcessors = 1024
	desEvals      = 100_000
	desEps        = 0.15
	desTF         = 1e-3
	desTA         = 55e-6
	desTC         = 6e-6
	// desBoundTol is how far T_P may sit from the master-bound
	// N·(2·T_C+T_A) in the saturated cell.
	desBoundTol = 0.05
)

// desRep runs RunAsync on the virtual cluster at P = 1024 with constant
// T_A and T_C, which saturates the master.
func desRep(in *inputs, traced bool, evals uint64) (*rep, error) {
	r := &rep{traced: traced, evals: evals}
	in.turn.gaps = in.turn.gaps[:0]
	clk := newClock()
	mem := watchMemory()
	defer mem.stop()
	start := clk.now()

	var prob problems.Problem = problems.NewUF11()
	tf := &evalClock{Distribution: stats.GammaFromMeanCV(desTF, 0.1), clk: clk, turn: &in.turn}
	cfg := parallel.Config{
		Problem:     prob,
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(prob.NumObjs(), desEps)},
		Processors:  desProcessors,
		Evaluations: evals,
		TF:          tf,
		TA:          stats.NewConstant(desTA),
		TC:          stats.NewConstant(desTC),
		Seed:        searchSeed,
	}
	var tp *timedProblem
	var ops []*timedOperator
	var opNanos int64
	var gauges coreGauges
	if traced {
		tp = &timedProblem{Problem: prob, clk: clk}
		cfg.Problem = tp
		cfg.Algorithm.Operators, ops = timedEnsemble(&opNanos)
		cfg.CheckpointEvery = 1
		cfg.OnCheckpoint = func(_ float64, b *core.Borg) { gauges.observe(b) }
	}
	res, err := parallel.RunAsync(cfg)
	if err != nil {
		return nil, err
	}
	end := clk.now()
	r.alloc, r.heapLive = mem.stop()
	r.setup = []float64{seconds(tf.first - start)}
	r.wall = seconds(end - tf.first)
	r.finishTurnaround(&in.turn, turnWindows)
	r.checkBudget(res.Completed, res.Evaluations, evals)
	r.wasted = res.LostEvaluations + res.DuplicateResults + res.Resubmissions
	bound := float64(evals) * (2*desTC + desTA)
	if dev := res.ElapsedTime/bound - 1; math.Abs(dev) > desBoundTol {
		r.failf("T_P %.4f s is %.1f%% from the master bound N·(2·T_C+T_A) = %.4f s", res.ElapsedTime, 100*dev, bound)
	}
	r.finishArchive(res.Final.Archive())

	if traced {
		r.layer = map[string]float64{
			"parallel.master_utilization": res.MasterUtilization,
			"parallel.worker_utilization": res.MeanWorkerUtilization,
		}
		gauges.report(r.layer, res.Final)
		reportOperators(r.layer, ops)
		reportProblem(r.layer, tp)
	}
	return r, nil
}

// ---- tcp-dtlz2-2w ----

const (
	tcpWorkers = 2
	tcpObjs    = 5
	tcpEps     = 0.3
	tcpEvals   = 100_000
	// tcpWallLimit aborts a run whose workers never connect.
	tcpWallLimit = 60 * time.Second
)

// tcpRep runs RunAsyncDistributed on loopback with two in-process
// wire.RunWorker workers and T_F = 0, so the master's per-evaluation
// cost 2·T_C+T_A sets the rate. Each worker evaluates through its own
// timedProblem, which records the turnaround it sees. Traced, the
// master's listener counts every byte, call and wait on its
// connections.
func tcpRep(in *inputs, traced bool, evals uint64) (*rep, error) {
	r := &rep{traced: traced, evals: evals}
	clk := newClock()
	mem := watchMemory()
	defer mem.stop()
	start := clk.now()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	var counters connCounters
	var listener net.Listener = ln
	if traced {
		listener = countingListener{Listener: ln, c: &counters}
	}
	turns := make([]gapRecorder, tcpWorkers)
	per := cap(in.turn.gaps) / tcpWorkers
	for w := range turns {
		turns[w].gaps = in.turn.gaps[w*per : w*per : (w+1)*per]
	}
	wps := make([]*timedProblem, tcpWorkers)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make([]error, tcpWorkers)
	for w := range wps {
		wp := &timedProblem{clk: clk, turn: &turns[w]}
		wps[w] = wp
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerErrs[w] = wire.RunWorker(ctx, wire.WorkerConfig{
				Addr: ln.Addr().String(),
				Seed: in.seed + uint64(w),
				Resolve: func(name string) (problems.Problem, error) {
					p, err := problems.ByName(name)
					if err != nil {
						return nil, err
					}
					wp.Problem = p
					return wp, nil
				},
			})
		}(w)
	}

	prob := problems.NewDTLZ2(tcpObjs)
	cfg := parallel.Config{
		Problem:     prob,
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(tcpObjs, tcpEps)},
		Evaluations: evals,
		Seed:        in.seed,
	}
	var ops []*timedOperator
	var opNanos int64
	var gauges coreGauges
	if traced {
		cfg.Algorithm.Operators, ops = timedEnsemble(&opNanos)
		cfg.CheckpointEvery = 1
		cfg.OnCheckpoint = func(_ float64, b *core.Borg) { gauges.observe(b) }
	}
	res, err := parallel.RunAsyncDistributed(cfg, parallel.DistributedConfig{
		Listener:  listener,
		WallLimit: tcpWallLimit,
	})
	end := clk.now()
	// The master sends Stop on completion; cancel covers a failed run.
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for w, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			r.failf("worker %d: %v", w, werr)
		}
	}
	r.alloc, r.heapLive = mem.stop()

	firstStart, lastFirst := int64(math.MaxInt64), int64(0)
	for _, wp := range wps {
		if wp.calls == 0 {
			r.failf("a worker evaluated nothing")
			continue
		}
		firstStart = min(firstStart, wp.firstStart)
		lastFirst = max(lastFirst, wp.firstStart)
	}
	// Set-up ends when the last worker has finished its handshake and
	// started evaluating.
	r.setup = []float64{seconds(lastFirst - start)}
	r.wall = seconds(end - firstStart)
	merged := in.turn.gaps[:0]
	for w := range turns {
		merged = append(merged, turns[w].gaps...)
	}
	in.turn.gaps = merged
	r.finishTurnaround(&in.turn, turnWindows)
	r.checkBudget(res.Completed, res.Evaluations, evals)
	r.wasted = res.LostEvaluations + res.DuplicateResults + res.Resubmissions
	r.finishArchive(res.Final.Archive())

	if traced {
		n := float64(res.Evaluations)
		r.layer = map[string]float64{
			"parallel.master_utilization": res.MasterUtilization,
			"parallel.worker_utilization": res.MeanWorkerUtilization,
			"wire.bytes_per_eval":         float64(counters.bytesRead.Load()+counters.bytesWritten.Load()) / n,
			"wire.writes_per_eval":        float64(counters.writes.Load()) / n,
			"wire.reads_per_eval":         float64(counters.reads.Load()) / n,
		}
		if w := counters.writes.Load(); w > 0 {
			r.layer["wire.write.ns"] = float64(counters.writeNanos.Load()) / float64(w)
		}
		if rd := counters.reads.Load(); rd > 0 {
			r.layer["wire.read_wait.ns"] = float64(counters.readWaitNanos.Load()) / float64(rd)
		}
		gauges.report(r.layer, res.Final)
		reportOperators(r.layer, ops)
		reportProblem(r.layer, wps...)
	}
	return r, nil
}

// ---- sim-table2 ----

var (
	simTFs        = []float64{1e-3, 10e-3, 100e-3}
	simProcessors = []int{16, 32, 64, 128, 256, 512, 1024}
)

const (
	simEvals = 100_000
	simTA    = 29e-6
	simTC    = 6e-6
	simCV    = 0.1
	// simTol is how far a cell's T_P may sit from its prediction:
	// Eq. 2 while the master is unsaturated, the master bound
	// N·(2·T_C+T_A) once it saturates.
	simTol = 0.05
	// simSaturated is the master utilisation from which a cell counts
	// as saturated in the per-layer split.
	simSaturated = 0.95
	// simFrontPoints sizes the front sample sim-table2 scores in place
	// of an archive.
	simFrontPoints = 1000
)

// simTurnCap bounds the T_F draws of one grid: each cell draws for
// its N evaluations and for up to P−1 still in flight at the end.
var simTurnCap = func() int {
	n := 0
	for range simTFs {
		for _, p := range simProcessors {
			n += simEvals + p
		}
	}
	return n
}()

// simCell runs one cell of the Table II grid.
func simCell(seed, evals uint64, tf float64, p int, clk clock, turn *gapRecorder) (model.SimResult, *evalClock, error) {
	tfd := &evalClock{Distribution: stats.GammaFromMeanCV(tf, simCV), clk: clk, turn: turn}
	res, err := model.Simulate(model.SimConfig{
		Processors:  p,
		Evaluations: evals,
		TF:          tfd,
		TA:          stats.GammaFromMeanCV(simTA, simCV),
		TC:          stats.NewConstant(simTC),
		Seed:        seed,
	})
	return res, tfd, err
}

// simRep sweeps model.Simulate over the Table II grid and checks every
// cell against the analytical model.
func simRep(in *inputs, traced bool, evals uint64) (*rep, error) {
	r := &rep{traced: traced, evals: evals * uint64(len(simTFs)*len(simProcessors))}
	in.turn.gaps = in.turn.gaps[:0]
	clk := newClock()
	mem := watchMemory()
	defer mem.stop()
	var wall, satNs, unsatNs int64
	var satEvals, unsatEvals, overshoot, maxUtil float64
	// The digest covers every cell's timings, so that repetitions
	// with the same seed must agree bit for bit.
	cells := sha256.New()
	for _, tf := range simTFs {
		for _, p := range simProcessors {
			start := clk.now()
			res, tfd, err := simCell(in.seed, evals, tf, p, clk, &in.turn)
			if err != nil {
				return nil, err
			}
			end := clk.now()
			var bits [16]byte
			binary.LittleEndian.PutUint64(bits[:8], math.Float64bits(res.Elapsed))
			binary.LittleEndian.PutUint64(bits[8:], math.Float64bits(res.MasterUtilization))
			_, _ = cells.Write(bits[:]) // a hash.Hash never fails to write
			r.setup = append(r.setup, seconds(tfd.first-start))
			wall += end - tfd.first
			r.segments = append(r.segments, seconds(end-tfd.first))
			// Simulate stops at the N-th completion but also counts the
			// evaluations still in flight then, so Evaluations may exceed
			// N. That overshoot is reported, not failed on.
			if res.Evaluations < evals || res.Elapsed <= 0 {
				r.failf("T_F=%gs P=%d: run ended after %d of %d evaluations", tf, p, res.Evaluations, evals)
			}
			overshoot += float64(res.Evaluations - min(res.Evaluations, evals))
			times := model.Times{TF: tf, TA: simTA, TC: simTC}
			predicted := max(model.AsyncTime(evals, p, times), float64(evals)*(2*simTC+simTA))
			if err := model.RelativeError(res.Elapsed, predicted); err > simTol {
				r.failf("T_F=%gs P=%d: T_P %.4f s is %.1f%% from the predicted %.4f s", tf, p, res.Elapsed, 100*err, predicted)
			}
			maxUtil = max(maxUtil, res.MasterUtilization)
			if res.MasterUtilization >= simSaturated {
				satNs += end - start
				satEvals += float64(res.Evaluations)
			} else {
				unsatNs += end - start
				unsatEvals += float64(res.Evaluations)
			}
		}
	}
	r.alloc, r.heapLive = mem.stop()
	r.wall = seconds(wall)
	r.finishTurnaround(&in.turn, turnWindows)
	copy(r.digest[:], cells.Sum(nil))

	// The grid evaluates no solutions; it scores a seeded sample of the
	// analytic front, which checks the quality pipeline itself.
	r.front = problems.SphereFront(serialObjs, simFrontPoints, in.seed)

	if traced {
		r.layer = map[string]float64{
			"model.evaluations_overshoot":  overshoot,
			"model.master_utilization_max": maxUtil,
		}
		if satEvals > 0 {
			r.layer["model.simulate.ns_per_eval.saturated"] = float64(satNs) / satEvals
		}
		if unsatEvals > 0 {
			r.layer["model.simulate.ns_per_eval.unsaturated"] = float64(unsatNs) / unsatEvals
		}
	}
	return r, nil
}

package parallel

import (
	"fmt"

	"borgmoea/internal/advisor"
	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/fault"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
)

// tfRecorder accumulates one process's evaluation-time observations.
// Each worker process owns its recorder exclusively and the drivers
// merge them in rank order at teardown, so no shared counters are
// mutated from inside worker closures — the drivers stay clean under
// the race detector even if the DES engine's lock-step execution model
// ever changed.
type tfRecorder struct {
	worker  int
	sum     float64
	n       uint64
	capture bool
	samples []float64
	hist    *obs.Histogram   // optional shared telemetry sink (nil-safe, concurrent-safe)
	adv     *advisor.Advisor // optional advisor feed (nil-safe; attributes by worker)
}

// record folds in one T_F; a nonzero exemplar (a sampled evaluation's
// trace id) is pinned to the histogram bucket the value lands in, so
// /debug/metrics links a latency bucket to a concrete trace.
func (r *tfRecorder) record(tf float64, exemplar uint64) {
	r.sum += tf
	r.n++
	if r.capture {
		r.samples = append(r.samples, tf)
	}
	r.hist.ObserveExemplar(tf, exemplar)
	r.adv.ObserveTF(r.worker, tf)
}

// newRecorders returns one recorder per worker rank 1..P−1.
func newRecorders(cfg *Config) []*tfRecorder {
	hist := cfg.Metrics.Histogram(mTF, nil)
	recs := make([]*tfRecorder, cfg.Processors-1)
	for i := range recs {
		recs[i] = &tfRecorder{worker: i + 1, capture: cfg.CaptureTimings, hist: hist, adv: cfg.Advisor}
	}
	return recs
}

// mergeTF folds recorders in the caller's (rank) order, making the
// samples deterministic, and returns the mean T_F and the samples.
func mergeTF(recs ...*tfRecorder) (mean float64, samples []float64) {
	sum, n := 0.0, uint64(0)
	for _, r := range recs {
		sum += r.sum
		n += r.n
		samples = append(samples, r.samples...)
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return mean, samples
}

// startWorkers launches the P−1 worker processes shared by the async
// and sync virtual-time drivers: receive a work item, evaluate it,
// hold T_F, echo the item to the master. Fault semantics: a crash
// during the evaluation bumps the node's epoch, so the result is never
// sent (the work died with the node); a transient hang defers the
// response until the node is responsive again.
func startWorkers(eng *des.Engine, cl *cluster.Cluster, cfg *Config, recs []*tfRecorder) {
	for w := 1; w < cfg.Processors; w++ {
		w := w
		node := cl.Node(w)
		rec := recs[w-1]
		wRng := rng.New(cfg.Seed ^ (uint64(w) * 0x9e3779b97f4a7c15))
		straggler := cfg.StragglerFraction > 0 &&
			float64(w-1) < cfg.StragglerFraction*float64(cfg.Processors-1)
		eng.Go(fmt.Sprintf("worker%d", w), func(p *des.Process) {
			for {
				msg := node.Recv(p)
				if msg.Tag == tagStop {
					return
				}
				item := msg.Payload.(*master.Item)
				epoch := node.Epoch()
				core.EvaluateSolution(cfg.Problem, item.S)
				tf := cfg.TF.Sample(wRng)
				if straggler {
					tf *= cfg.StragglerFactor
				}
				rec.record(tf, item.Trace.Exemplar())
				cfg.Trace.ObserveTF(item.ID, tf)
				node.HoldBusy(p, tf, "eval")
				if node.Failed() || node.Epoch() != epoch {
					continue // crashed mid-evaluation: the work is lost
				}
				if until := node.SuspendedUntil(); until > p.Now() {
					p.Hold(until - p.Now()) // hang delays the response
				}
				node.Send(0, tagResult, item)
			}
		})
	}
}

// attachFaults installs the run's fault plan on the cluster and wires
// the recovery protocol: when a worker node comes back from a crash it
// re-registers with the master via tagHello (its previous work and
// queued messages died with the crash). Returns the injector for
// statistics and teardown.
func attachFaults(cl *cluster.Cluster, cfg *Config) *fault.Injector {
	inj := fault.Attach(cl, cfg.Fault)
	inj.SetTransitionHook(func(rank int, up bool) {
		if up && rank != 0 {
			cl.Node(rank).Send(0, tagHello, rank)
		}
	})
	return inj
}

// runEngine drives the simulation to completion, honoring the optional
// virtual-time limit, and folds cluster/injector fault statistics into
// the result.
func runEngine(eng *des.Engine, cl *cluster.Cluster, inj *fault.Injector, cfg *Config, res *Result) {
	if cfg.SimTimeLimit > 0 {
		eng.RunUntil(cfg.SimTimeLimit)
	} else {
		eng.Run()
	}
	eng.Shutdown()
	st := inj.Stats()
	res.WorkerCrashes = st.Crashes
	res.WorkerRecoveries = st.Recoveries
	res.HangsInjected = st.Hangs
	res.MessagesLost = cl.MessagesLost()
}

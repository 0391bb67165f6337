package model

import (
	"fmt"

	"borgmoea/internal/des"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// SimConfig parameterizes the simulation model (Section IV.B): a
// queueing-only discrete-event model of the asynchronous master-slave
// interaction. Unlike the drivers in internal/parallel it performs no
// actual search — exactly like the paper's SimPy model, it only
// "holds" resources for sampled durations, which is why it can sweep
// thousands of configurations in seconds.
type SimConfig struct {
	// Processors is P (1 master + P−1 workers), >= 2.
	Processors int
	// Evaluations is N, the total evaluation budget.
	Evaluations uint64
	// TF, TA, TC are timing distributions. Constant distributions
	// reproduce the analytical model's assumptions (and the simulated
	// time then matches Eq. 2 while the master is unsaturated).
	TF, TA, TC stats.Distribution
	// Seed seeds the simulation's random streams.
	Seed uint64
}

// SimResult reports the simulated run.
type SimResult struct {
	// Elapsed is the simulated T_P: the evaluations in flight at the
	// N-th completion are never interrupted, and T_P is when the last
	// of them lands.
	Elapsed float64
	// MasterUtilization is the master resource's busy fraction within
	// [0, T_P] — near 1.0 means saturation (P beyond Eq. 3's bound).
	MasterUtilization float64
	// MeanQueueLength is the time-averaged number of workers waiting
	// for the master, the contention the analytical model ignores.
	MeanQueueLength float64
	// MaxQueueLength is the worst instantaneous queue.
	MaxQueueLength int
	// Evaluations counts the first N completions only (== the
	// configured budget); the in-flight ones that land after the N-th
	// are not counted.
	Evaluations uint64
}

// Simulate runs the simulation model once and returns the predicted
// timing. The worker process mirrors the paper's SimPy listing:
//
//	yield request, self, master
//	yield hold, self, sampleTc() + sampleTa() + sampleTc()
//	yield release, self, master
//	activate(worker, worker.evaluate())   // hold sampleTf()
//
// i.e. each evaluation cycle acquires the master (queueing if busy),
// holds it for T_C + T_A + T_C, releases it, then evaluates for T_F.
func Simulate(cfg SimConfig) (SimResult, error) {
	if cfg.Processors < 2 {
		return SimResult{}, fmt.Errorf("model: Simulate requires P >= 2, got %d", cfg.Processors)
	}
	if cfg.Evaluations == 0 {
		return SimResult{}, fmt.Errorf("model: Simulate requires a positive evaluation budget")
	}
	if cfg.TF == nil || cfg.TA == nil || cfg.TC == nil {
		return SimResult{}, fmt.Errorf("model: Simulate requires TF, TA and TC distributions")
	}

	eng := des.New()
	master := des.NewResource(eng, "master", 1)
	r := rng.New(cfg.Seed ^ 0x73696d) // "sim"

	completed := uint64(0)
	var elapsed, busy float64
	for w := 1; w < cfg.Processors; w++ {
		wr := r.Split()
		eng.Go(fmt.Sprintf("worker%d", w), func(p *des.Process) {
			for {
				// Request the master: initial task hand-out and every
				// subsequent result-return + next-offspring exchange.
				master.Acquire(p)
				// Fitted timing distributions (e.g. a normal selected
				// for measured T_A) can sample below zero; durations
				// are clamped so the virtual clock never runs backward.
				p.Hold(max(0, cfg.TC.Sample(wr)+cfg.TA.Sample(wr)+cfg.TC.Sample(wr)))
				master.Release(p)
				if completed >= cfg.Evaluations {
					return
				}
				p.Hold(max(0, cfg.TF.Sample(wr)))
				if completed < cfg.Evaluations {
					completed++
				}
				if completed >= cfg.Evaluations {
					// Master holds that outlast T_P are not part of
					// the run: read the busy time now.
					elapsed = p.Now()
					busy = master.Stats().BusyTimeTotal
					return
				}
			}
		})
	}
	eng.Run()
	eng.Shutdown()

	st := master.Stats()
	res := SimResult{
		Elapsed:           elapsed,
		Evaluations:       completed,
		MeanQueueLength:   st.MeanQueueLen,
		MaxQueueLength:    st.MaxQueueLen,
		MasterUtilization: 0,
	}
	if elapsed > 0 {
		res.MasterUtilization = busy / elapsed
	}
	return res, nil
}

// SimulateMean runs the simulation model `replicates` times with
// distinct seeds and returns the mean elapsed time — the quantity
// compared against experiment in Table II.
func SimulateMean(cfg SimConfig, replicates int) (float64, error) {
	if replicates < 1 {
		return 0, fmt.Errorf("model: need at least one replicate")
	}
	sum := 0.0
	for i := 0; i < replicates; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		r, err := Simulate(c)
		if err != nil {
			return 0, err
		}
		sum += r.Elapsed
	}
	return sum / float64(replicates), nil
}

// SimEfficiency converts a simulated elapsed time into efficiency
// E_P = T_S/(P·T_P) using the distribution means for T_S.
func SimEfficiency(cfg SimConfig, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	ts := float64(cfg.Evaluations) * (cfg.TF.Mean() + cfg.TA.Mean())
	return ts / (float64(cfg.Processors) * elapsed)
}

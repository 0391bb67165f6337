package parallel

import (
	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/master"
	"borgmoea/internal/rng"
)

// RunSync executes the synchronous (generational) master-slave MOEA
// baseline of Cantú-Paz on the virtual cluster, using the same Borg
// core for search so the comparison isolates the coordination model.
//
// Protocol (Figure 1 of the paper): each generation the master
// generates P offspring (T_A each — the synchronous algorithm
// processes the whole generation, hence T_A^sync ≈ P·T_A), sends one
// to each of the P−1 workers (T_C each), evaluates one offspring
// itself (T_F), then waits for every worker's result (T_C per
// receive) before starting the next generation. The barrier makes the
// generation as slow as its slowest evaluation — the effect the
// asynchronous design removes.
//
// Worker lifecycle runs on the shared master.Registry (the same
// dispatch primitive behind the asynchronous state machine): workers
// that miss the barrier are marked suspect and excluded from scatter
// until a sign of life (a recovery tagHello or a late result) marks
// them idle again.
//
// Fault tolerance: the gather barrier is bounded by
// Config.BarrierTimeout, so a dead worker no longer stalls its
// generation forever. Suspects' unevaluated offspring are cloned into
// a backlog that fills the next generations' batches ahead of fresh
// Suggest calls. Results are stamped with their generation so stale
// stragglers are discarded as duplicates, and each generation accepts
// results in batch order — fault-free the trajectory is bit-for-bit
// the original driver's. With every worker dead the master degrades to
// evaluating one offspring per generation itself, so the run still
// completes.
func RunSync(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	eng := des.New()
	installTrace(eng, &cfg)
	cl := cluster.New(eng, cluster.Config{Nodes: cfg.Processors, Seed: cfg.Seed})
	inj := attachFaults(cl, &cfg)

	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b, err := core.New(cfg.Problem, algCfg)
	if err != nil {
		return nil, err
	}

	res := &Result{Processors: cfg.Processors, Final: b}
	// Advisor and Trace model the asynchronous protocol (see Config),
	// so the sync baseline reports its timings to the histograms only.
	tm := &master.Timings{Meters: master.NewMeters(cfg.Metrics), Capture: cfg.CaptureTimings}
	meters := tm.Meters
	masterRng := rng.New(cfg.Seed ^ 0x73796e63) // "sync"
	startWorkers(eng, cl, &cfg, tm)

	node := cl.Node(0)
	masterTFRng := rng.New(cfg.Seed ^ 0x6d746600)
	completed := uint64(0)
	var elapsedAtN float64
	eng.Go("master", func(p *des.Process) {
		// Each Suggest and each Accept is one T_A section, charged to
		// the master node as an "algo" hold.
		alg := master.NewMetered(b, master.MeterConfig{
			TA:      cfg.TA,
			Rng:     masterRng,
			Charge:  func(ta float64) { node.HoldBusy(p, ta, "algo") },
			Timings: tm,
		})
		checkpoint := cfg.checkpointHook(meters, p.Now, b)
		reg := master.NewRegistry()
		for w := 1; w < cfg.Processors; w++ {
			reg.Join(w)
		}
		got := make([]bool, cfg.Processors)
		var backlog []*core.Solution
		var gen uint64
		for completed < cfg.Evaluations {
			gen++
			alive := make([]int, 0, cfg.Processors-1)
			for _, w := range reg.Known() {
				if reg.State(w) != master.StateSuspect {
					alive = append(alive, w)
				}
			}
			// Build the generation's batch: resubmitted backlog first,
			// fresh offspring (T_A each) for the rest.
			batch := make([]*core.Solution, 1+len(alive))
			for i := range batch {
				if len(backlog) > 0 {
					batch[i] = backlog[0]
					backlog = backlog[1:]
					res.Resubmissions++
					meters.Resub.Inc()
					continue
				}
				batch[i] = alg.Suggest()
			}
			// Scatter: one offspring per live worker.
			for i, w := range alive {
				tm.TCSend(nil, holdTC(p, node, cfg.TC, masterRng))
				node.Send(w, tagEvaluate, &master.Item{Gen: gen, S: batch[i+1]})
			}
			// The master evaluates one offspring itself.
			core.EvaluateSolution(cfg.Problem, batch[0])
			tf := cfg.TF.Sample(masterTFRng)
			tm.TF(nil, 0, tf)
			node.HoldBusy(p, tf, "eval")
			// Gather: the synchronization barrier, bounded by
			// BarrierTimeout when set.
			for w := range got {
				got[w] = false
			}
			count, need := 0, len(alive)
			gatherMsg := func(msg *cluster.Message) {
				switch msg.Tag {
				case tagHello:
					// A recovered worker re-registered; it rejoins the
					// scatter next generation.
					meters.Hellos.Inc()
					reg.MarkIdle(msg.From)
				case tagResult:
					item := msg.Payload.(*master.Item)
					if item.Gen != gen || got[msg.From] {
						// Stale straggler from a generation that already
						// backlogged this work — but its sender is alive.
						res.DuplicateResults++
						meters.Dups.Inc()
						reg.MarkIdle(msg.From)
						return
					}
					got[msg.From] = true
					count++
				}
			}
			deadline := p.Now() + cfg.BarrierTimeout
			for count < need {
				var msg *cluster.Message
				if cfg.BarrierTimeout > 0 {
					remaining := deadline - p.Now()
					if remaining <= 0 {
						break
					}
					m, ok := node.RecvTimeout(p, remaining)
					if !ok {
						break
					}
					msg = m
				} else {
					msg = node.Recv(p)
				}
				tm.TCRecv(nil, holdTC(p, node, cfg.TC, masterRng))
				gatherMsg(msg)
			}
			// Drain messages already delivered (recovery hellos, late
			// results that beat the timeout) so they don't leak into
			// the next generation's barrier.
			for node.InboxLen() > 0 {
				msg := node.Recv(p)
				tm.TCRecv(nil, holdTC(p, node, cfg.TC, masterRng))
				gatherMsg(msg)
			}
			// Workers that missed the barrier are presumed dead; their
			// offspring go to the backlog for re-scatter.
			for i, w := range alive {
				if !got[w] {
					reg.MarkSuspect(w)
					res.LostEvaluations++
					backlog = append(backlog, batch[i+1].Clone())
				}
			}
			// Fold the evaluated part of the generation back in, in
			// batch order (fault-free: the whole batch, the original
			// fold order).
			for i, s := range batch {
				if i > 0 && !got[alive[i-1]] {
					continue
				}
				alg.Accept(&master.Item{S: s})
				completed++
				meters.Evals.Inc()
				if checkpoint != nil {
					checkpoint(completed)
				}
				if completed >= cfg.Evaluations {
					break
				}
			}
			res.Generations++
			meters.Generations.Inc()
		}
		elapsedAtN = p.Now()
		for w := 1; w < cfg.Processors; w++ {
			node.Send(w, tagStop, nil)
		}
		inj.Stop()
	})

	runEngine(eng, cl, inj, &cfg, res)

	res.ElapsedTime = elapsedAtN
	res.Evaluations = completed
	res.Completed = completed >= cfg.Evaluations
	res.MasterBusy = node.BusyTime()
	if elapsedAtN > 0 {
		res.MasterUtilization = res.MasterBusy / elapsedAtN
		sum := 0.0
		for w := 1; w < cfg.Processors; w++ {
			sum += cl.Node(w).BusyTime() / elapsedAtN
		}
		res.MeanWorkerUtilization = sum / float64(cfg.Processors-1)
	}
	res.fillTimings(tm)
	return res, nil
}

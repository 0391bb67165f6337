package parallel

import (
	"fmt"

	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/fault"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// holdTC draws one T_C on r and charges it to the master node as a
// "comm" hold. The caller reports it to the run's Timings once the hold
// returns.
func holdTC(p *des.Process, node *cluster.Node, tc stats.Distribution, r *rng.Source) float64 {
	d := tc.Sample(r)
	node.HoldBusy(p, d, "comm")
	return d
}

// startWorkers launches the P−1 worker processes shared by the async
// and sync virtual-time drivers: receive a work item, evaluate it,
// hold T_F, echo the item to the master. Fault semantics: a crash
// during the evaluation bumps the node's epoch, so the result is never
// sent (the work died with the node); a transient hang defers the
// response until the node is responsive again. Each T_F goes to tm
// before its hold.
func startWorkers(eng *des.Engine, cl *cluster.Cluster, cfg *Config, tm *master.Timings) {
	for w := 1; w < cfg.Processors; w++ {
		w := w
		node := cl.Node(w)
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
				tm.TF(item, w, tf)
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

// installTrace wires the DES engine's trace stream into the run's
// sinks: the user's TraceHook and/or the obs event journal. With
// neither attached the engine keeps its nil hook and emits nothing.
func installTrace(eng *des.Engine, cfg *Config) {
	hook, rec := cfg.TraceHook, cfg.Events
	if hook == nil && rec == nil {
		return
	}
	eng.SetTrace(func(ev des.TraceEvent) {
		if hook != nil {
			hook(ev.At, ev.Kind, ev.Actor, ev.Detail)
		}
		rec.Record(obs.Event{TS: ev.At, Kind: ev.Kind, Actor: ev.Actor, Detail: ev.Detail})
	})
}

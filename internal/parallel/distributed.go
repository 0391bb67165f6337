package parallel

import (
	"fmt"
	"net"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/wire"
)

// DistributedConfig parameterizes the network side of a distributed
// master-slave run (the algorithm side stays in Config).
type DistributedConfig struct {
	// Listen is the TCP address the master binds ("":7070", or
	// "127.0.0.1:0" to pick a free port). Ignored when Listener is
	// set.
	Listen string
	// Listener, when non-nil, is a pre-bound listener the master
	// adopts (tests and in-process examples bind port 0 themselves to
	// learn the address before starting workers). The master closes
	// it at the end of the run either way.
	Listener net.Listener
	// LeaseTimeout bounds how long the master waits for a dispatched
	// evaluation before presuming it lost and resubmitting a clone —
	// the wall-clock analogue of Config.LeaseTimeout. 0 falls back to
	// Config.LeaseTimeout (seconds) and then to 30s; < 0 disables
	// lease expiry (a dead connection still resubmits immediately).
	LeaseTimeout time.Duration
	// Conn tunes handshake, heartbeat, idle and write timeouts shared
	// by every accepted connection.
	Conn wire.Options
	// WallLimit aborts an unfinishable run (e.g. every worker gone
	// for good) after this much wall time; 0 means no limit. A run
	// that hits it returns Completed == false.
	WallLimit time.Duration
	// Logf, when set, receives worker lifecycle messages.
	Logf func(format string, args ...any)
}

func (d *DistributedConfig) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// RunAsyncDistributed executes the asynchronous master-slave Borg MOEA
// over real TCP: the master listens, borgd workers dial in, and the
// shared lease/resubmission protocol recovers evaluations lost to
// killed or partitioned workers. The master remains a single event
// loop — the paper's property that the algorithm's critical section is
// serial — running the same state machine (internal/master) as the
// virtual-time drivers, while the network layer feeds it joins,
// results and deaths.
//
// Differences from the virtual-time drivers: the worker pool is
// dynamic (Config.Processors is ignored; Result.Processors reports
// 1 + the peak concurrent worker count), T_F is whatever the workers
// actually take (plus any artificial delay configured worker-side),
// and faults are not injected — real workers fail for real. A worker
// that reconnects re-registers via its handshake Hello, which retires
// its old lease exactly like the virtual drivers' tagHello path.
func RunAsyncDistributed(cfg Config, dcfg DistributedConfig) (*Result, error) {
	if !cfg.Fault.Empty() {
		return nil, fmt.Errorf("parallel: fault injection requires a virtual-time driver (RunAsync/RunSync); distributed workers fail for real")
	}
	if cfg.Problem == nil {
		return nil, fmt.Errorf("parallel: Problem is required")
	}
	if cfg.Evaluations == 0 {
		return nil, fmt.Errorf("parallel: Evaluations must be positive")
	}
	if dcfg.Conn.Metrics == nil {
		// Connection telemetry lands in the run's registry by default.
		dcfg.Conn.Metrics = cfg.Metrics
	}
	adv := cfg.Advisor
	// P is dynamic here (inferred from live workers via SetLive); only
	// the budget is known up front.
	adv.Configure(0, cfg.Evaluations)
	if adv != nil && dcfg.Conn.OnRTT == nil {
		// Heartbeat RTTs stand in for T_C when there is no way to
		// observe one-way latency directly.
		dcfg.Conn.OnRTT = adv.ObserveRTT
	}
	leaseTimeout := dcfg.LeaseTimeout
	if leaseTimeout == 0 && cfg.LeaseTimeout > 0 {
		leaseTimeout = time.Duration(cfg.LeaseTimeout * float64(time.Second))
	}
	if leaseTimeout == 0 {
		leaseTimeout = 30 * time.Second
	}

	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b, err := core.New(cfg.Problem, algCfg)
	if err != nil {
		return nil, err
	}

	listener := dcfg.Listener
	if listener == nil {
		if dcfg.Listen == "" {
			return nil, fmt.Errorf("parallel: distributed run needs a Listen address or a Listener")
		}
		listener, err = net.Listen("tcp", dcfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("parallel: listen: %w", err)
		}
	}
	// The pool owns the listener from here on and closes it with every
	// session at the end of the run.
	pool := wire.NewPool(wire.Welcome{
		Problem: cfg.Problem.Name(),
		NumVars: uint32(cfg.Problem.NumVars()),
		NumObjs: uint32(cfg.Problem.NumObjs()),
	}, dcfg.Conn)
	pool.Start(listener)
	defer pool.Close()

	// Master side: the shared state machine on the wall clock, lazy
	// offspring generation (the worker pool is dynamic, so offspring
	// are suggested on demand at dispatch, bounded by the remaining
	// budget).
	res := &Result{Final: b}
	tm := cfg.timings()
	journal := cfg.Events
	// Accept and Suggest are metered as separate sections (the lazy
	// policy splits them across the result and dispatch paths); per
	// completed evaluation they sum to the paper's T_A.
	alg := master.NewMetered(b, master.MeterConfig{
		TA:      cfg.TA,
		Rng:     rng.New(cfg.Seed ^ 0x6d617374),
		Timings: tm,
		Quality: cfg.Quality,
	})
	start := time.Now()
	var elapsedAtN float64
	since := func() float64 { return time.Since(start).Seconds() }
	record := func(ev obs.Event) {
		if journal != nil {
			ev.TS = since()
			journal.Record(ev)
		}
	}

	coreTimeout := 0.0
	if leaseTimeout > 0 {
		coreTimeout = leaseTimeout.Seconds()
	}
	mcfg := master.Config{
		Budget:       cfg.Evaluations,
		LeaseTimeout: coreTimeout,
		Policy:       master.LazyOffspring,
		DeferApply:   cfg.DeferArchive,
		// Workers hold deep copies of granted work (frames encode the
		// solution), so an expired lease's wrapper and Solution can be
		// reissued in place instead of cloned.
		ReuseOnResubmit: true,
		Meters:          tm.Meters,
		Emit:            func(kind, detail string) { record(obs.Event{Kind: kind, Actor: "master", Detail: detail}) },
		Log:             cfg.Protocol,
		OnAccept:        cfg.checkpointHook(tm.Meters, since, b),
	}
	alg.Install(&mcfg)
	m := master.NewCore(mcfg)

	// gone reports a closed session; the state machine hears about the
	// death separately (EvGone, or the retire inside a replacing EvJoin).
	gone := func(id uint64, why error) {
		record(obs.Event{Kind: "worker.dead", Actor: fmt.Sprintf("worker%d", id), Detail: fmt.Sprintf("%v", why)})
		adv.SetLive(pool.Live())
		dcfg.logf("parallel: worker %d gone: %v", id, why)
	}
	// A failed send surfaces later as the session's PoolDead, so
	// executing actions never re-enters Handle.
	exec := func(acts []master.Action) {
		for _, a := range acts {
			switch a.Kind {
			case master.ActGrant:
				if tc, err := pool.Grant(uint64(a.Worker), wire.EvaluateItem(a.Item)); err == nil {
					tm.TCSend(a.Item, tc)
				}
			case master.ActStop:
				_ = pool.Send(uint64(a.Worker), wire.Stop{})
			case master.ActComplete:
				elapsedAtN = since()
				cfg.Protocol.SetElapsed(elapsedAtN)
			}
		}
	}

	tickC, stopTick := wire.LeaseTicker(leaseTimeout)
	defer stopTick()
	var wallC <-chan time.Time
	if dcfg.WallLimit > 0 {
		wall := time.NewTimer(dcfg.WallLimit)
		defer wall.Stop()
		wallC = wall.C
	}

loop:
	for !m.Done() {
		select {
		case e := <-pool.Events():
			s := e.Session
			switch e.Kind {
			case wire.PoolJoin:
				if old := pool.Admit(s); old != nil {
					// Reconnect-with-hello: the old incarnation's work
					// died with it; the machine retires it inside EvJoin.
					gone(old.ID, fmt.Errorf("replaced by reconnect"))
				}
				adv.SetLive(pool.Live())
				record(obs.Event{Kind: "worker.join", Actor: fmt.Sprintf("worker%d", s.ID), Detail: s.RemoteAddr().String()})
				dcfg.logf("parallel: worker %d joined from %s (%d live)", s.ID, s.RemoteAddr(), pool.Live())
				exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: int(s.ID), At: since()}))
			case wire.PoolDead:
				if !pool.Drop(s) {
					break // already torn down (replaced, or a bad result)
				}
				gone(s.ID, e.Err)
				exec(m.Handle(master.Event{Kind: master.EvGone, Worker: int(s.ID), At: since()}))
			case wire.PoolMsg:
				msg, ok := e.Msg.(*wire.Result)
				if s.Gone() || !ok {
					break // stale, or not a result (nothing else is expected)
				}
				// Fill in the solution and meter T_F only when the
				// machine will accept this result (a live lease granted
				// to this worker); late duplicates are discarded inside.
				if worker, item, live := m.Lease(msg.Lease); live && worker == int(s.ID) {
					evalSec, err := msg.Fill(item, cfg.Problem.NumObjs())
					if err != nil {
						pool.Drop(s)
						gone(s.ID, err)
						exec(m.Handle(master.Event{Kind: master.EvGone, Worker: int(s.ID), At: since()}))
						break
					}
					tm.TF(item, int(s.ID), evalSec)
					if journal != nil {
						// Reconstruct the worker's eval span master-side
						// from the reported duration.
						journal.Record(obs.Event{TS: since() - evalSec, Dur: evalSec, Kind: "eval", Actor: fmt.Sprintf("worker%d", s.ID)})
					}
				}
				exec(m.Handle(master.Event{Kind: master.EvResult, Worker: int(s.ID), Item: msg.Lease, At: since()}))
				// Deferred mode: the grant frame is on the wire; fold the
				// staged result in now (no-op when DeferArchive is off).
				m.Flush()
				// Quality cadence: route the trigger through the master
				// so the sample point lands in the BMEL log (replayable
				// even though this driver's clock is wall time).
				if q := cfg.Quality; q != nil && !m.Done() && q.Due(m.Completed(), since()) {
					exec(m.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: since()}))
				}
			}
		case <-tickC:
			exec(m.Handle(master.Event{Kind: master.EvTick, At: since()}))
		case <-wallC:
			dcfg.logf("parallel: wall limit %v reached with %d/%d evaluations", dcfg.WallLimit, m.Completed(), cfg.Evaluations)
			break loop
		}
	}

	// Stop is written before the close, so a healthy worker reads it
	// ahead of the FIN and exits cleanly instead of reconnecting. (On a
	// completed run the machine's ActStop already said stop; the extra
	// send on a drained conn is harmless, and this also covers
	// wall-limit exits.)
	pool.SendAll(wire.Stop{})
	pool.Close()

	st := m.Stats()
	res.ElapsedTime = elapsedAtN
	if res.ElapsedTime == 0 {
		res.ElapsedTime = since()
	}
	res.Evaluations = st.Completed
	res.Completed = st.Completed >= cfg.Evaluations
	res.Resubmissions = st.Resubmissions
	res.LostEvaluations = st.Lost
	res.DuplicateResults = st.Duplicates
	res.Processors = m.Peak() + 1
	res.fillTimings(tm)
	res.MasterBusy = tm.TotalTA.Sum
	if res.ElapsedTime > 0 {
		res.MasterUtilization = res.MasterBusy / res.ElapsedTime
	}
	// T_A per completed evaluation: its Suggest and Accept sections.
	if st.Completed > 0 {
		res.MeanTA = tm.TotalTA.Sum / float64(st.Completed)
	}
	return res, nil
}

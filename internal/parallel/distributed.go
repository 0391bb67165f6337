package parallel

import (
	"fmt"
	"net"
	"sync/atomic"
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

// distSession is one live worker connection as the master sees it —
// pure transport state. Protocol state (lease, lifecycle, idle queue)
// lives in the shared state machine; the session only maps a worker id
// to the conn that currently speaks for it.
type distSession struct {
	id   uint64
	conn *wire.Conn
	gone bool // connection closed or replaced; terminal
}

type distEventKind uint8

const (
	distJoin distEventKind = iota
	distMsg
	distDead
)

type distEvent struct {
	kind distEventKind
	sess *distSession
	msg  wire.Message
	err  error
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
	defer listener.Close()

	welcome := wire.Welcome{
		Problem:         cfg.Problem.Name(),
		NumVars:         uint32(cfg.Problem.NumVars()),
		NumObjs:         uint32(cfg.Problem.NumObjs()),
		HeartbeatMillis: uint32(dcfg.Conn.Heartbeat.Milliseconds()),
	}

	events := make(chan distEvent, 256)
	done := make(chan struct{})
	defer close(done)
	push := func(e distEvent) {
		select {
		case events <- e:
		case <-done:
		}
	}

	// Accept loop: handshake each connection off the main loop, then
	// feed its messages to the master as events.
	var nextWorkerID atomic.Uint64
	go func() {
		for {
			nc, err := listener.Accept()
			if err != nil {
				return // listener closed: run over
			}
			go func() {
				var id uint64
				conn, _, err := wire.ServerHandshake(nc, dcfg.Conn, func(h wire.Hello) (*wire.Welcome, error) {
					w := welcome
					if h.WorkerID != 0 {
						w.WorkerID = h.WorkerID // reconnect keeps its identity
					} else {
						w.WorkerID = nextWorkerID.Add(1)
					}
					id = w.WorkerID
					return &w, nil
				})
				if err != nil {
					return
				}
				conn.StartHeartbeat(0)
				s := &distSession{id: id, conn: conn}
				push(distEvent{kind: distJoin, sess: s})
				for {
					m, err := conn.Recv()
					if err != nil {
						push(distEvent{kind: distDead, sess: s, err: err})
						return
					}
					push(distEvent{kind: distMsg, sess: s, msg: m})
				}
			}()
		}
	}()

	// Master side: the shared state machine on the wall clock, lazy
	// offspring generation (the worker pool is dynamic, so offspring
	// are suggested on demand at dispatch, bounded by the remaining
	// budget).
	res := &Result{Final: b}
	meters := master.NewMeters(cfg.Metrics)
	journal := cfg.Events
	// Accept and Suggest are metered as separate sections (the lazy
	// policy splits them across the result and dispatch paths); per
	// completed evaluation they sum to the paper's T_A.
	alg := master.NewMetered(b, cfg.meterConfig(meters, rng.New(cfg.Seed^0x6d617374), nil))
	byID := make(map[uint64]*distSession)
	tfSum, tfN := 0.0, uint64(0)
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
		Meters:          meters,
		Emit:            func(kind, detail string) { record(obs.Event{Kind: kind, Actor: "master", Detail: detail}) },
		Log:             cfg.Protocol,
		OnAccept:        cfg.checkpointHook(meters, since, b),
	}
	alg.Install(&mcfg)
	m := master.NewCore(mcfg)

	// drop tears down a session's transport; the state machine hears
	// about the death separately (EvGone, or the retire inside a
	// replacing EvJoin).
	drop := func(s *distSession, why error) {
		if s.gone {
			return
		}
		s.gone = true
		record(obs.Event{Kind: "worker.dead", Actor: fmt.Sprintf("worker%d", s.id), Detail: fmt.Sprintf("%v", why)})
		s.conn.Close()
		if byID[s.id] == s {
			delete(byID, s.id)
		}
		adv.SetLive(len(byID))
		dcfg.logf("parallel: worker %d gone: %v", s.id, why)
	}
	var exec func(acts []master.Action)
	exec = func(acts []master.Action) {
		// Handle reuses its action slice; copy before executing, because
		// a failed grant send re-enters Handle mid-iteration.
		acts = append([]master.Action(nil), acts...)
		for _, a := range acts {
			switch a.Kind {
			case master.ActGrant:
				s := byID[uint64(a.Worker)]
				if s == nil || s.gone {
					continue
				}
				ev := &wire.Evaluate{
					Lease:    a.Item.ID,
					SolID:    a.Item.S.ID,
					Operator: int32(a.Item.S.Operator),
					Vars:     a.Item.S.Vars,
					Trace:    a.Item.Trace,
				}
				sendStart := time.Now()
				if err := s.conn.Send(ev); err != nil {
					drop(s, err)
					exec(m.Handle(master.Event{Kind: master.EvGone, Worker: a.Worker, At: since()}))
					continue
				}
				cfg.Trace.ObserveTCSend(a.Item.ID, time.Since(sendStart).Seconds())
			case master.ActStop:
				if s := byID[uint64(a.Worker)]; s != nil && !s.gone {
					_ = s.conn.Send(wire.Stop{})
				}
			case master.ActComplete:
				elapsedAtN = since()
				cfg.Protocol.SetElapsed(elapsedAtN)
			}
		}
	}

	var tickC <-chan time.Time
	if leaseTimeout > 0 {
		interval := leaseTimeout / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tickC = ticker.C
	}
	var wallC <-chan time.Time
	if dcfg.WallLimit > 0 {
		wall := time.NewTimer(dcfg.WallLimit)
		defer wall.Stop()
		wallC = wall.C
	}

loop:
	for !m.Done() {
		select {
		case e := <-events:
			switch e.kind {
			case distJoin:
				if old := byID[e.sess.id]; old != nil && old != e.sess {
					// Reconnect-with-hello: the old incarnation's work
					// died with it; the machine retires it inside EvJoin.
					drop(old, fmt.Errorf("replaced by reconnect"))
				}
				byID[e.sess.id] = e.sess
				adv.SetLive(len(byID))
				record(obs.Event{Kind: "worker.join", Actor: fmt.Sprintf("worker%d", e.sess.id), Detail: e.sess.conn.RemoteAddr().String()})
				dcfg.logf("parallel: worker %d joined from %s (%d live)", e.sess.id, e.sess.conn.RemoteAddr(), len(byID))
				exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: int(e.sess.id), At: since()}))
			case distDead:
				if e.sess.gone {
					break // already torn down (replaced, or send failure)
				}
				drop(e.sess, e.err)
				exec(m.Handle(master.Event{Kind: master.EvGone, Worker: int(e.sess.id), At: since()}))
			case distMsg:
				s := e.sess
				if s.gone {
					break
				}
				msg, ok := e.msg.(*wire.Result)
				if !ok {
					break // nothing else is expected after the handshake
				}
				// Fill in the solution and meter T_F only when the
				// machine will accept this result (a live lease granted
				// to this worker); late duplicates are discarded inside.
				if worker, item, live := m.Lease(msg.Lease); live && worker == int(s.id) {
					if len(msg.Objs) != cfg.Problem.NumObjs() {
						drop(s, fmt.Errorf("result with %d objectives, want %d", len(msg.Objs), cfg.Problem.NumObjs()))
						exec(m.Handle(master.Event{Kind: master.EvGone, Worker: int(s.id), At: since()}))
						break
					}
					sol := item.S
					sol.Objs = msg.Objs
					sol.Constrs = msg.Constrs
					evalSec := float64(msg.EvalNanos) / 1e9
					tfSum += evalSec
					tfN++
					meters.TF.ObserveExemplar(evalSec, item.Trace.Exemplar())
					adv.ObserveTF(int(s.id), evalSec)
					cfg.Trace.ObserveTF(item.ID, evalSec)
					if journal != nil {
						// Reconstruct the worker's eval span master-side
						// from the reported duration.
						journal.Record(obs.Event{TS: since() - evalSec, Dur: evalSec, Kind: "eval", Actor: fmt.Sprintf("worker%d", s.id)})
					}
				}
				exec(m.Handle(master.Event{Kind: master.EvResult, Worker: int(s.id), Item: msg.Lease, At: since()}))
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

	// Tear down: stop accepting, stop every worker. Stop is written
	// before the close, so a healthy worker reads it ahead of the FIN
	// and exits cleanly instead of reconnecting. (On a completed run
	// the machine's ActStop already said stop; the extra send on a
	// drained conn is harmless, and this sweep also covers wall-limit
	// exits.)
	listener.Close()
	for _, s := range byID {
		_ = s.conn.Send(wire.Stop{})
		s.conn.Close()
	}

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
	res.MasterBusy = alg.Sum()
	if res.ElapsedTime > 0 {
		res.MasterUtilization = res.MasterBusy / res.ElapsedTime
	}
	if st.Completed > 0 {
		res.MeanTA = alg.Sum() / float64(st.Completed)
	}
	res.TASamples = alg.Samples()
	if tfN > 0 {
		res.MeanTF = tfSum / float64(tfN)
	}
	return res, nil
}

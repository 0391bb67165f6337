package federation

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/wire"
)

// islandContext is everything one island master needs, assembled by
// Run before the island goroutines start.
type islandContext struct {
	cfg      *Config
	isl      int
	b        *core.Borg
	adv      *advisor.Advisor
	meters   master.Meters
	workerLn net.Listener
	peerLn   net.Listener
	succAddr string
	root     *Root
	log      *master.Log
	mlog     *MigrantLog
	trace    *obs.Collector      // nil disables tracing for this island
	quality  *obs.QualitySampler // nil disables quality sampling
}

// islandResult is one island's contribution to the federation Result.
type islandResult struct {
	elapsed  float64
	stats    master.Stats
	migrants uint64
	peak     int
}

type islandEventKind uint8

const (
	iJoin islandEventKind = iota
	iMsg
	iDead
	iMigrant
)

// islandEvent is one input to the island master loop: worker transport
// events exactly as in the distributed driver, plus migrant frames
// arriving on the peer listener.
type islandEvent struct {
	kind islandEventKind
	sess *islandSession
	msg  wire.Message
	mig  *wire.Migrant
	err  error
}

// islandSession is one live worker connection, as in the distributed
// driver.
type islandSession struct {
	id   uint64
	conn *wire.Conn
	gone bool
}

// dialPeer dials the ring successor's peer listener, retrying while the
// rest of the federation is still binding (Run binds every listener
// first, so in practice the first attempt succeeds).
func dialPeer(addr string, deadline time.Time) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return nc, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("dial ring successor %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// runIsland is one island master: the shared state machine over a TCP
// worker pool, plus the synchronous migration-epoch protocol on the
// ring (see the package comment). It blocks until the island's budget
// completes or the run fails.
func runIsland(ic islandContext) (islandResult, error) {
	cfg := ic.cfg
	b := ic.b
	var ir islandResult

	ic.adv.Configure(0, cfg.Evaluations)

	events := make(chan islandEvent, 256)
	done := make(chan struct{})
	defer close(done)
	push := func(e islandEvent) {
		select {
		case events <- e:
		case <-done:
		}
	}

	connOpt := cfg.Conn
	if connOpt.OnRTT == nil {
		// Heartbeat RTTs stand in for T_C, as in the distributed driver.
		connOpt.OnRTT = ic.adv.ObserveRTT
	}

	welcome := wire.Welcome{
		Problem:         cfg.Problem.Name(),
		NumVars:         uint32(cfg.Problem.NumVars()),
		NumObjs:         uint32(cfg.Problem.NumObjs()),
		HeartbeatMillis: uint32(connOpt.Heartbeat.Milliseconds()),
	}

	// Worker accept loop: identical protocol to the distributed driver —
	// handshake off the main loop, then feed messages as events.
	var nextWorkerID atomic.Uint64
	go func() {
		for {
			nc, err := ic.workerLn.Accept()
			if err != nil {
				return // listener closed: run over
			}
			go func() {
				var id uint64
				conn, _, err := wire.ServerHandshake(nc, connOpt, func(h wire.Hello) (*wire.Welcome, error) {
					w := welcome
					if h.WorkerID != 0 {
						w.WorkerID = h.WorkerID
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
				s := &islandSession{id: id, conn: conn}
				push(islandEvent{kind: iJoin, sess: s})
				for {
					m, err := conn.Recv()
					if err != nil {
						push(islandEvent{kind: iDead, sess: s, err: err})
						return
					}
					push(islandEvent{kind: iMsg, sess: s, msg: m})
				}
			}()
		}
	}()

	// Peer accept loop: raw migrant frames from the ring predecessor —
	// no handshake, no heartbeat, just length-prefixed CRC-checked
	// frames until the predecessor closes.
	var peerMu sync.Mutex
	var peerConns []net.Conn
	go func() {
		for {
			nc, err := ic.peerLn.Accept()
			if err != nil {
				return
			}
			peerMu.Lock()
			peerConns = append(peerConns, nc)
			peerMu.Unlock()
			go func() {
				br := bufio.NewReader(nc)
				var buf []byte // payload scratch; messages never alias it
				for {
					m, next, err := wire.ReadMessageBuf(br, buf)
					buf = next
					if err != nil {
						return
					}
					if mg, ok := m.(*wire.Migrant); ok {
						push(islandEvent{kind: iMigrant, mig: mg})
					}
				}
			}()
		}
	}()

	migrate := cfg.MigrationEvery > 0 && cfg.Islands > 1
	var succ net.Conn
	if migrate {
		var err error
		succ, err = dialPeer(ic.succAddr, time.Now().Add(cfg.migrationTimeout()))
		if err != nil {
			return ir, err
		}
		defer succ.Close()
	}
	var rootConn net.Conn
	if ic.root != nil && cfg.DeltaEvery > 0 {
		var err error
		rootConn, err = dialPeer(ic.root.Addr(), time.Now().Add(cfg.migrationTimeout()))
		if err != nil {
			return ir, err
		}
		defer rootConn.Close()
	}

	// T_A is the measured wall-clock critical section, optionally
	// stretched by a sampled SimulateTA sleep inside it (the knob that
	// drags the per-island P_UB into loopback-test range).
	mc := master.MeterConfig{
		Stretch: cfg.SimulateTA,
		Hist:    ic.meters.TA,
		Advisor: ic.adv,
		Trace:   ic.trace,
		Quality: ic.quality,
	}
	if mc.Stretch != nil {
		mc.Rng = rng.New(cfg.Seed ^ (uint64(ic.isl+1) * 0x7461)) // "ta"
	}
	alg := master.NewMetered(b, mc)

	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }
	var elapsedAt float64

	// staged carries the migrant solution from the driver into the
	// OnMigrant hook under Handle — the hook body is identical in
	// Replay, which stages from the migrant sidecar log instead.
	var staged *core.Solution
	coreTimeout := 0.0
	if cfg.LeaseTimeout > 0 {
		coreTimeout = cfg.LeaseTimeout.Seconds()
	}
	mcfg := master.Config{
		Budget:       cfg.Evaluations,
		LeaseTimeout: coreTimeout,
		Policy:       master.EagerOffspring,
		// Workers hold deep copies of granted work (wire frames encode
		// the solution), so expired-lease work is reissued in place.
		ReuseOnResubmit: true,
		Meters:          ic.meters,
		Log:             ic.log,
		OnMigrant: func(source int, epoch uint64) {
			if staged != nil {
				alg.Inject(staged)
				staged = nil
			}
		},
	}
	alg.Install(&mcfg)
	m := master.NewCore(mcfg)

	byID := make(map[uint64]*islandSession)
	drop := func(s *islandSession, why error) {
		if s.gone {
			return
		}
		s.gone = true
		s.conn.Close()
		if byID[s.id] == s {
			delete(byID, s.id)
		}
		ic.adv.SetLive(len(byID))
		cfg.logf("federation: island %d worker %d gone: %v", ic.isl, s.id, why)
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
				if ic.trace != nil {
					// The measured send time is the direct T_C sample: it
					// feeds both the trace (per-evaluation attribution)
					// and the advisor fit, so borgtrace's per-term means
					// and /debug/scaling agree by construction.
					tc := time.Since(sendStart).Seconds()
					ic.trace.ObserveTCSend(a.Item.ID, tc)
					ic.adv.ObserveTC(tc)
				}
			case master.ActStop:
				if s := byID[uint64(a.Worker)]; s != nil && !s.gone {
					_ = s.conn.Send(wire.Stop{})
				}
			case master.ActComplete:
				elapsedAt = since()
				ic.log.SetElapsed(elapsedAt)
			}
		}
	}

	pred := (ic.isl - 1 + cfg.Islands) % cfg.Islands
	migRng := NewMigrationRNG(cfg.Seed, ic.isl)
	pendingMig := make(map[uint64]*wire.Migrant)
	var backlog []islandEvent
	var lastEpoch uint64
	var migBuf []byte // frame scratch, reused per send
	var deltaSeq uint64
	var migErr error

	writeFrame := func(nc net.Conn, msg wire.Message) error {
		migBuf = wire.AppendFrame(migBuf[:0], msg)
		if err := nc.SetWriteDeadline(time.Now().Add(cfg.migrationTimeout())); err != nil {
			return err
		}
		_, err := nc.Write(migBuf)
		return err
	}

	// takeMigrant blocks until the predecessor's epoch-e migrant
	// arrives, buffering early migrants of later epochs and backlogging
	// every non-migrant event for the main loop.
	takeMigrant := func(epoch uint64) (*wire.Migrant, error) {
		if mg, ok := pendingMig[epoch]; ok {
			delete(pendingMig, epoch)
			return mg, nil
		}
		timeout := time.NewTimer(cfg.migrationTimeout())
		defer timeout.Stop()
		for {
			select {
			case e := <-events:
				if e.kind == iMigrant {
					if e.mig.Epoch == epoch {
						return e.mig, nil
					}
					pendingMig[e.mig.Epoch] = e.mig
					continue
				}
				backlog = append(backlog, e)
			case <-timeout.C:
				return nil, fmt.Errorf("migration epoch %d: no migrant from island %d within %v", epoch, pred, cfg.migrationTimeout())
			}
		}
	}

	// afterAccept implements the synchronous epoch protocol at accept
	// count n, plus the root delta stream. Send-before-wait keeps the
	// ring deadlock-free; the fixed injection point keeps the event log
	// canonical across transports.
	afterAccept := func(n uint64, accepted *core.Solution) {
		if migrate && n > 0 && n%cfg.MigrationEvery == 0 {
			epoch := n / cfg.MigrationEvery
			if epoch > lastEpoch {
				lastEpoch = epoch
				mg := Emigrant(ic.isl, epoch, b.Archive(), migRng, accepted)
				// The emigrant span context rides the wire to the ring
				// successor, which links it into its own forest — the
				// cross-island flow arrow in a merged Chrome export.
				mg.Trace = ic.trace.ObserveEmigrant(epoch, since())
				if err := writeFrame(succ, mg); err != nil {
					migErr = fmt.Errorf("send migrant epoch %d: %w", epoch, err)
					return
				}
				ic.mlog.Record(mg)
				ir.migrants++
				ic.meters.Migrants.Inc()
				if !m.Done() {
					in, err := takeMigrant(epoch)
					if err != nil {
						migErr = err
						return
					}
					ic.trace.LinkMigrant(epoch, in.Trace)
					staged = MigrantSolution(in)
					exec(m.Handle(master.Event{Kind: master.EvMigrant, Worker: int(in.Island), Item: epoch, At: since()}))
				}
			}
		}
		if ic.trace != nil && n%stragglerCheckEvery == 0 {
			// Poll the straggler detector so flagged workers start
			// force-sampling even when nothing serves /debug/scaling.
			ic.adv.Report()
		}
		if rootConn != nil && n > 0 && n%cfg.DeltaEvery == 0 {
			deltaSeq++
			if err := writeFrame(rootConn, archiveDelta(ic.isl, deltaSeq, n, b.Archive())); err != nil {
				cfg.logf("federation: island %d delta: %v", ic.isl, err)
				rootConn.Close()
				rootConn = nil
			}
		}
	}

	var tickC <-chan time.Time
	if cfg.LeaseTimeout > 0 {
		interval := cfg.LeaseTimeout / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tickC = ticker.C
	}
	wall := time.NewTimer(cfg.wallLimit())
	defer wall.Stop()

	for !m.Done() && migErr == nil {
		var e islandEvent
		if len(backlog) > 0 {
			e = backlog[0]
			backlog = backlog[1:]
		} else {
			select {
			case e = <-events:
			case <-tickC:
				exec(m.Handle(master.Event{Kind: master.EvTick, At: since()}))
				continue
			case <-wall.C:
				migErr = fmt.Errorf("wall limit %v reached with %d/%d evaluations", cfg.wallLimit(), m.Completed(), cfg.Evaluations)
			}
			if migErr != nil {
				break
			}
		}
		switch e.kind {
		case iJoin:
			if old := byID[e.sess.id]; old != nil && old != e.sess {
				drop(old, fmt.Errorf("replaced by reconnect"))
			}
			byID[e.sess.id] = e.sess
			ic.adv.SetLive(len(byID))
			cfg.logf("federation: island %d worker %d joined (%d live)", ic.isl, e.sess.id, len(byID))
			exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: int(e.sess.id), At: since()}))
		case iDead:
			if e.sess.gone {
				break
			}
			drop(e.sess, e.err)
			exec(m.Handle(master.Event{Kind: master.EvGone, Worker: int(e.sess.id), At: since()}))
		case iMigrant:
			// A migrant outside a boundary wait: the predecessor runs
			// ahead; hold its frame for the epoch we will reach.
			pendingMig[e.mig.Epoch] = e.mig
		case iMsg:
			s := e.sess
			if s.gone {
				break
			}
			msg, ok := e.msg.(*wire.Result)
			if !ok {
				break
			}
			var accepted *core.Solution
			if worker, item, live := m.Lease(msg.Lease); live && worker == int(s.id) {
				if len(msg.Objs) != cfg.Problem.NumObjs() {
					drop(s, fmt.Errorf("result with %d objectives, want %d", len(msg.Objs), cfg.Problem.NumObjs()))
					exec(m.Handle(master.Event{Kind: master.EvGone, Worker: int(s.id), At: since()}))
					break
				}
				sol := item.S
				sol.Objs = msg.Objs
				sol.Constrs = msg.Constrs
				accepted = sol
				evalSec := float64(msg.EvalNanos) / 1e9
				ic.meters.TF.ObserveExemplar(evalSec, item.Trace.Exemplar())
				ic.adv.ObserveTF(int(s.id), evalSec)
				ic.trace.ObserveTF(item.ID, evalSec)
			}
			prev := m.Completed()
			exec(m.Handle(master.Event{Kind: master.EvResult, Worker: int(s.id), Item: msg.Lease, At: since()}))
			if n := m.Completed(); n > prev {
				afterAccept(n, accepted)
				// Quality cadence: the trigger detours through the master
				// so the sample point lands in this island's BMEL log
				// (replayable via ReplayQuality).
				if q := ic.quality; q != nil && migErr == nil && !m.Done() && q.Due(n, since()) {
					exec(m.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: since()}))
				}
			}
		}
	}

	// Tear down this island's transports. Stop is written before the
	// close so healthy workers exit instead of reconnecting.
	ic.workerLn.Close()
	ic.peerLn.Close()
	for _, s := range byID {
		_ = s.conn.Send(wire.Stop{})
		s.conn.Close()
	}
	peerMu.Lock()
	for _, nc := range peerConns {
		nc.Close()
	}
	peerMu.Unlock()

	ir.stats = m.Stats()
	ir.peak = m.Peak()
	ir.elapsed = elapsedAt
	if ir.elapsed == 0 {
		ir.elapsed = since()
	}
	return ir, migErr
}

// stragglerCheckEvery is how many accepts pass between polls of the
// advisor's straggler detector when tracing is on.
const stragglerCheckEvery = 64

// archiveDelta packages the most recent archive members (capped at
// deltaCap) as a root-bound Delta frame.
const deltaCap = 32

func archiveDelta(isl int, seq, completed uint64, arch *core.Archive) *wire.Delta {
	members := arch.Members()
	if len(members) > deltaCap {
		members = members[len(members)-deltaCap:]
	}
	d := &wire.Delta{Island: uint32(isl), Seq: seq, Completed: completed}
	for _, s := range members {
		d.Members = append(d.Members, wire.DeltaMember{
			Operator: int32(s.Operator),
			Vars:     s.Vars,
			Objs:     s.Objs,
			Constrs:  s.Constrs,
		})
	}
	return d
}

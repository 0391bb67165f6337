package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"borgmoea/internal/master"
)

// Pool is the master side of the worker transport, the counterpart of
// RunWorker. It accepts worker connections, runs the handshake from a
// Welcome template, assigns worker ids, starts heartbeats, and delivers
// every session's join, messages and death as PoolEvents on the one
// channel the master's event loop selects on.
//
// A reconnecting worker keeps the id its Hello announces; a fresh one
// gets an id above every id the pool has seen or was told of
// (RaiseIDs), so it never takes an id a redialing worker still owns.
//
// The live-session table (Admit, Drop, Send, Grant, Live) belongs to
// the event loop. Start, RaiseIDs, SendAll and Close are safe from any
// goroutine.
type Pool struct {
	welcome Welcome
	opt     Options
	// events is buffered so a fleet's readers keep draining their
	// sockets while the loop is inside its serial critical section.
	events chan PoolEvent
	done   chan struct{}  // closed by Close: readers stop pushing
	wg     sync.WaitGroup // the accept loop and the session readers

	mu     sync.Mutex
	ln     net.Listener
	maxID  uint64             // id watermark
	conns  map[*Conn]struct{} // admitted sessions whose reader still runs
	closed bool

	live map[uint64]*Session // loop-owned
}

// PoolEventKind says what happened to a session.
type PoolEventKind uint8

const (
	// PoolJoin: the session finished its handshake.
	PoolJoin PoolEventKind = iota
	// PoolMsg: the session received Msg.
	PoolMsg
	// PoolDead: the session's connection failed with Err.
	PoolDead
)

// PoolEvent is one input from the worker transport to the master
// loop. A session's join precedes its messages and its death.
type PoolEvent struct {
	Kind    PoolEventKind
	Session *Session
	Msg     Message
	Err     error
}

// Session is one admitted worker connection.
type Session struct {
	ID   uint64
	conn *Conn
	gone bool // closed, dropped or replaced; loop-owned, terminal
}

// Gone reports whether the session was dropped or replaced; its
// remaining events are stale.
func (s *Session) Gone() bool { return s.gone }

// RemoteAddr reports the worker's address.
func (s *Session) RemoteAddr() net.Addr { return s.conn.RemoteAddr() }

// ErrNoSession is returned by Send for a worker id with no live session.
var ErrNoSession = errors.New("wire: no live session")

// NewPool builds a pool that greets workers with welcome (WorkerID and
// HeartbeatMillis are filled per session) over connections tuned by
// opt. It accepts nothing until Start.
func NewPool(welcome Welcome, opt Options) *Pool {
	welcome.HeartbeatMillis = uint32(opt.Heartbeat.Milliseconds())
	return &Pool{
		welcome: welcome,
		opt:     opt,
		events:  make(chan PoolEvent, 256),
		done:    make(chan struct{}),
		conns:   make(map[*Conn]struct{}),
		live:    make(map[uint64]*Session),
	}
}

// Start accepts workers on ln in the background until Close, which
// also closes ln. Call it once, before Close.
func (p *Pool) Start(ln net.Listener) {
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go p.serve(nc)
		}
	}()
}

// Events is the channel the master loop selects on.
func (p *Pool) Events() <-chan PoolEvent { return p.events }

// RaiseIDs keeps fresh worker ids above id — for ids the master learns
// of outside a handshake, such as the workers of a restored log.
func (p *Pool) RaiseIDs(id uint64) {
	p.mu.Lock()
	p.maxID = max(p.maxID, id)
	p.mu.Unlock()
}

// assignID applies the id rule to an announced id (0 = fresh worker).
func (p *Pool) assignID(announced uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if announced == 0 {
		announced = p.maxID + 1
	}
	p.maxID = max(p.maxID, announced)
	return announced
}

// serve runs one connection: handshake (bounded by the idle timeout),
// admission, then a reader that pushes the session's events until the
// connection or the pool ends.
func (p *Pool) serve(nc net.Conn) {
	conn, w, err := ServerHandshake(nc, p.opt, func(h Hello) (*Welcome, error) {
		w := p.welcome
		w.WorkerID = p.assignID(h.WorkerID)
		return &w, nil
	})
	if err != nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		// Admitted after teardown: nobody will read this session.
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.conns[conn] = struct{}{}
	p.wg.Add(1)
	p.mu.Unlock()
	defer p.wg.Done()
	conn.StartHeartbeat(0)
	s := &Session{ID: w.WorkerID, conn: conn}
	for ok := p.push(PoolEvent{Kind: PoolJoin, Session: s}); ok; {
		m, err := conn.Recv()
		if err != nil {
			conn.Close()
			p.mu.Lock()
			delete(p.conns, conn)
			p.mu.Unlock()
			p.push(PoolEvent{Kind: PoolDead, Session: s, Err: err})
			return
		}
		ok = p.push(PoolEvent{Kind: PoolMsg, Session: s, Msg: m})
	}
	// The pool closed under us; Close closes conn.
}

func (p *Pool) push(e PoolEvent) bool {
	select {
	case p.events <- e:
		return true
	case <-p.done:
		return false
	}
}

// Admit makes s the live session of its worker id. A live session
// already holding that id — the earlier incarnation of a reconnecting
// worker — is closed, marked gone and returned; otherwise Admit
// returns nil.
func (p *Pool) Admit(s *Session) (replaced *Session) {
	old := p.live[s.ID]
	p.live[s.ID] = s
	if old == nil || old == s {
		return nil
	}
	old.gone = true
	old.conn.Close()
	return old
}

// Drop closes s and removes it from the live table. It reports false
// when s was already gone (replaced, or dropped before), so a death is
// reported once.
func (p *Pool) Drop(s *Session) bool {
	if s.gone {
		return false
	}
	s.gone = true
	s.conn.Close()
	if p.live[s.ID] == s {
		delete(p.live, s.ID)
	}
	return true
}

// Send writes m to the live session of worker id; an unknown id
// returns ErrNoSession. A failed write closes the connection, so the
// session's death arrives as its PoolDead event, never inside Send.
func (p *Pool) Send(id uint64, m Message) error {
	s := p.live[id]
	if s == nil {
		return ErrNoSession
	}
	if err := s.conn.Send(m); err != nil {
		s.conn.Close()
		return err
	}
	return nil
}

// Grant sends ev to worker id as Send does and returns the measured
// send time in seconds: the master's T_C for one grant.
func (p *Pool) Grant(id uint64, ev *Evaluate) (float64, error) {
	start := time.Now()
	if err := p.Send(id, ev); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// Live is the number of live sessions.
func (p *Pool) Live() int { return len(p.live) }

// SendAll writes m to every admitted session whose connection is
// still up, joined or not; write errors are ignored. A master that
// ends its workers' runs sends Stop this way before Close, so healthy
// workers exit instead of redialing.
func (p *Pool) SendAll(m Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		_ = c.Send(m) // best effort: a dead session reports itself
	}
}

// Close stops accepting, closes every session the pool admitted,
// including sessions whose join the loop never read, and returns once
// the accept loop and the session readers have exited. A handshake
// still in flight ends on its own and is closed on admission. Close is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	ln, conns := p.ln, p.conns
	p.conns = nil
	p.mu.Unlock()
	close(p.done)
	if ln != nil {
		ln.Close()
	}
	for c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

// EvaluateItem is the grant frame for a master lease: item's solution
// under its lease id, carrying its span context.
func EvaluateItem(item *master.Item) *Evaluate {
	return &Evaluate{
		Lease:    item.ID,
		SolID:    item.S.ID,
		Operator: int32(item.S.Operator),
		Vars:     item.S.Vars,
		Trace:    item.Trace,
	}
}

// Fill stores r's objectives and constraints in item's solution and
// returns the evaluation time the worker reported, in seconds (T_F).
// A result with other than nobj objectives fills nothing and errs.
func (r *Result) Fill(item *master.Item, nobj int) (float64, error) {
	if len(r.Objs) != nobj {
		return 0, fmt.Errorf("result with %d objectives, want %d", len(r.Objs), nobj)
	}
	item.S.Objs = r.Objs
	item.S.Constrs = r.Constrs
	return float64(r.EvalNanos) / 1e9, nil
}

// LeaseTicker returns the channel a master loop selects on to expire
// leases — a tick every quarter of timeout, at most every 10ms — and
// the function that stops it. A non-positive timeout disables expiry:
// the channel is nil and never ready.
func LeaseTicker(timeout time.Duration) (<-chan time.Time, func()) {
	if timeout <= 0 {
		return nil, func() {}
	}
	t := time.NewTicker(max(timeout/4, 10*time.Millisecond))
	return t.C, t.Stop
}

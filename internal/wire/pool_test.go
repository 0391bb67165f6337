package wire

import (
	"net"
	"testing"
	"time"
)

// poolConn keeps pool tests snappy: no heartbeats to wait on, and an
// idle timeout far beyond any test's run.
var poolConn = Options{Heartbeat: -1, IdleTimeout: 10 * time.Second}

// startPool binds a loopback listener and starts a pool on it.
func startPool(t *testing.T, ln net.Listener) *Pool {
	t.Helper()
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPool(Welcome{Problem: "DTLZ2_5", NumVars: 14, NumObjs: 5}, poolConn)
	p.Start(ln)
	t.Cleanup(p.Close)
	return p
}

// nextEvent reads one pool event, failing the test after a second.
func nextEvent(t *testing.T, p *Pool) PoolEvent {
	t.Helper()
	select {
	case e := <-p.Events():
		return e
	case <-time.After(time.Second):
		t.Fatal("no pool event within 1s")
		return PoolEvent{}
	}
}

// dialPool performs the worker side of the handshake against p.
func dialPool(t *testing.T, addr string, id uint64) (*Conn, uint64) {
	t.Helper()
	c, w, err := Dial(addr, Hello{WorkerID: id}, poolConn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, w.WorkerID
}

// expectEnd fails unless c's peer ends the connection within a second.
func expectEnd(t *testing.T, c *Conn) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		for {
			if _, err := c.Recv(); err != nil {
				errc <- err
				return
			}
		}
	}()
	select {
	case <-errc:
	case <-time.After(time.Second):
		t.Fatal("connection still open 1s after the pool ended it")
	}
}

// TestPoolFreshIDAboveAnnounced: a worker redialing with id 1 keeps it,
// and a fresh worker that follows gets an id above 1 instead of
// colliding with (and evicting) the live redialed session.
func TestPoolFreshIDAboveAnnounced(t *testing.T) {
	p := startPool(t, nil)
	addr := p.ln.Addr().String()

	c1, id1 := dialPool(t, addr, 1)
	e1 := nextEvent(t, p)
	c2, id2 := dialPool(t, addr, 0)
	e2 := nextEvent(t, p)
	if id1 != 1 || id2 <= 1 {
		t.Fatalf("ids: redialed %d (want 1), fresh %d (want > 1)", id1, id2)
	}
	for _, e := range []PoolEvent{e1, e2} {
		if e.Kind != PoolJoin {
			t.Fatalf("event kind %d, want join", e.Kind)
		}
		if old := p.Admit(e.Session); old != nil {
			t.Fatalf("session %d replaced session %d", e.Session.ID, old.ID)
		}
	}
	if p.Live() != 2 {
		t.Fatalf("Live = %d, want 2", p.Live())
	}
	for _, tc := range []struct {
		c  *Conn
		id uint64
	}{{c1, id1}, {c2, id2}} {
		if err := p.Send(tc.id, &Evaluate{Lease: tc.id}); err != nil {
			t.Fatalf("send to worker %d: %v", tc.id, err)
		}
		m, err := tc.c.Recv()
		if ev, ok := m.(*Evaluate); err != nil || !ok || ev.Lease != tc.id {
			t.Fatalf("worker %d received %v, %v; want its Evaluate", tc.id, m, err)
		}
	}
}

// TestPoolReconnectReplaces: a second Hello with the same id replaces
// the live session; the old connection is closed and its death is
// reported exactly once.
func TestPoolReconnectReplaces(t *testing.T) {
	p := startPool(t, nil)
	addr := p.ln.Addr().String()

	c1, _ := dialPool(t, addr, 7)
	first := nextEvent(t, p)
	if p.Admit(first.Session) != nil {
		t.Fatal("first session replaced something")
	}
	c2, id := dialPool(t, addr, 7)
	if id != 7 {
		t.Fatalf("reconnect got id %d, want 7", id)
	}
	reports := 0
	if old := p.Admit(nextEvent(t, p).Session); old != nil {
		if old != first.Session || !old.Gone() {
			t.Fatalf("replaced %+v, want the first session, gone", old)
		}
		reports++
	}
	expectEnd(t, c1)
	for {
		e := nextEvent(t, p)
		if e.Kind == PoolDead && e.Session == first.Session {
			if p.Drop(e.Session) {
				reports++
			}
			break
		}
	}
	if reports != 1 {
		t.Fatalf("old session reported %d times, want 1", reports)
	}
	if p.Live() != 1 {
		t.Fatalf("Live = %d, want 1", p.Live())
	}
	if err := p.Send(7, Stop{}); err != nil {
		t.Fatal(err)
	}
	if m, err := c2.Recv(); err != nil || m != (Stop{}) {
		t.Fatalf("replacement received %v, %v; want Stop", m, err)
	}
}

// acceptSignal reports each accepted connection on accepted.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return nc, err
}

// TestPoolCloseEndsUnreadSessions: Close ends every admitted session,
// including one whose join the loop never read, and a session whose
// handshake completes after Close is closed at once — neither is kept
// alive by its heartbeats.
func TestPoolCloseEndsUnreadSessions(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := acceptSignal{Listener: ln, accepted: make(chan struct{}, 2)}
	p := startPool(t, sig)
	addr := ln.Addr().String()
	admitted := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.conns)
	}

	// Admitted, join never consumed.
	hb := Options{Heartbeat: 20 * time.Millisecond, IdleTimeout: 10 * time.Second}
	c1, _, err := Dial(addr, Hello{}, hb)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.StartHeartbeat(0)
	<-sig.accepted
	for deadline := time.Now().Add(time.Second); admitted() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("session not admitted within 1s")
		}
		time.Sleep(time.Millisecond)
	}

	// Accepted but mid-handshake when the pool closes.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c2 := newConn(nc, hb)
	defer c2.Close()
	<-sig.accepted

	p.Close()
	expectEnd(t, c1)
	if err := c2.Send(&Hello{}); err != nil {
		t.Fatal(err)
	}
	c2.StartHeartbeat(0)
	expectEnd(t, c2)
}

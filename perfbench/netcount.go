package main

import (
	"net"
	"sync/atomic"
	"time"
)

// connCounters accumulates what the master's side of every accepted
// connection did: bytes and calls in each direction, the time spent in
// Write, and the time Read waited for data to arrive.
type connCounters struct {
	bytesRead, bytesWritten atomic.Int64
	reads, writes           atomic.Int64
	readWaitNanos           atomic.Int64
	writeNanos              atomic.Int64
}

// countingListener wraps the listener a distributed run adopts so
// that every connection it accepts is a countingConn.
type countingListener struct {
	net.Listener
	c *connCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, c: l.c}, nil
}

// countingConn counts the calls, bytes and blocked time of one
// connection into shared counters.
type countingConn struct {
	net.Conn
	c *connCounters
}

func (cc *countingConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := cc.Conn.Read(p)
	cc.c.readWaitNanos.Add(int64(time.Since(start)))
	cc.c.reads.Add(1)
	cc.c.bytesRead.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := cc.Conn.Write(p)
	cc.c.writeNanos.Add(int64(time.Since(start)))
	cc.c.writes.Add(1)
	cc.c.bytesWritten.Add(int64(n))
	return n, err
}

package coap

import (
	"fmt"
	"net"
	"sync"

	"iiotds/internal/clock"
	"iiotds/internal/netbuf"
)

// Transport moves opaque CoAP datagrams between endpoints identified by
// string addresses. Implementations exist for real UDP sockets and for
// the emulated RPL mesh (internal/core), which is what lets the same
// middleware code run in both worlds.
type Transport interface {
	// Send transmits one datagram to addr. It must not retain data past
	// the call — senders reuse the buffer for the next datagram — so a
	// transport that delivers later, or hands data to a receiver that
	// keeps it, copies first.
	Send(addr string, data []byte) error
	// SetReceiver installs the inbound datagram callback. It must be
	// called exactly once, before any datagram arrives.
	SetReceiver(fn func(from string, data []byte))
	// LocalAddr returns this endpoint's address.
	LocalAddr() string
	// Close releases transport resources.
	Close() error
}

// CancelFunc cancels a scheduled call; it is safe to call more than once.
type CancelFunc = clock.CancelFunc

// Scheduler abstracts time so the CoAP message layer (retransmissions,
// exchange lifetimes) runs identically on virtual time in the simulator
// and on the wall clock over UDP.
type Scheduler = clock.Scheduler

// UDPTransport is a Transport over a real UDP socket.
type UDPTransport struct {
	conn *net.UDPConn

	mu   sync.Mutex
	recv func(from string, data []byte)
	done chan struct{}
}

// NewUDPTransport opens a UDP socket bound to bind (e.g., ":5683" or
// "127.0.0.1:0") and starts its reader goroutine.
func NewUDPTransport(bind string) (*UDPTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("coap: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("coap: listen %q: %w", bind, err)
	}
	t := &UDPTransport{conn: conn, done: make(chan struct{})}
	go t.readLoop()
	return t, nil
}

func (t *UDPTransport) readLoop() {
	defer close(t.done)
	buf := make([]byte, 64*1024)
	for {
		n, from, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		t.mu.Lock()
		recv := t.recv
		t.mu.Unlock()
		if recv != nil {
			data := make([]byte, n)
			copy(data, buf[:n])
			recv(from.String(), data)
		}
	}
}

// Send implements Transport.
func (t *UDPTransport) Send(addr string, data []byte) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("coap: resolve %q: %w", addr, err)
	}
	_, err = t.conn.WriteToUDP(data, ua)
	return err
}

// SetReceiver implements Transport.
func (t *UDPTransport) SetReceiver(fn func(from string, data []byte)) {
	t.mu.Lock()
	t.recv = fn
	t.mu.Unlock()
}

// LocalAddr implements Transport.
func (t *UDPTransport) LocalAddr() string { return t.conn.LocalAddr().String() }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	err := t.conn.Close()
	<-t.done
	return err
}

var _ Transport = (*UDPTransport)(nil)

// LoopTransport is an in-memory transport connecting named endpoints
// through a shared switchboard — handy for unit tests and single-process
// demos. Delivery is synchronous.
type LoopTransport struct {
	board *Switchboard
	addr  string

	mu   sync.Mutex
	recv func(from string, data []byte)

	// DropEvery, when n > 0, drops every n-th outbound datagram
	// (deterministic loss for retransmission tests). DropFirst drops
	// the first n datagrams outright.
	dropEvery int
	dropFirst int
	sent      int
}

// Switchboard connects LoopTransports by address.
type Switchboard struct {
	mu    sync.Mutex
	ports map[string]*LoopTransport
}

// NewSwitchboard returns an empty switchboard.
func NewSwitchboard() *Switchboard {
	return &Switchboard{ports: make(map[string]*LoopTransport)}
}

// Attach creates (and registers) a transport with the given address.
func (s *Switchboard) Attach(addr string) *LoopTransport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.ports[addr]; dup {
		panic(fmt.Sprintf("coap: switchboard address %q attached twice", addr))
	}
	t := &LoopTransport{board: s, addr: addr}
	s.ports[addr] = t
	return t
}

// SetDropEvery makes the transport drop every n-th outbound datagram.
func (t *LoopTransport) SetDropEvery(n int) {
	t.mu.Lock()
	t.dropEvery = n
	t.mu.Unlock()
}

// SetDropFirst makes the transport drop the next n outbound datagrams.
func (t *LoopTransport) SetDropFirst(n int) {
	t.mu.Lock()
	t.dropFirst = n
	t.mu.Unlock()
}

// Sent returns the number of Send calls (including dropped ones).
func (t *LoopTransport) Sent() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent
}

// Send implements Transport.
func (t *LoopTransport) Send(addr string, data []byte) error {
	t.mu.Lock()
	t.sent++
	drop := t.dropEvery > 0 && t.sent%t.dropEvery == 0
	if t.dropFirst > 0 {
		t.dropFirst--
		drop = true
	}
	t.mu.Unlock()
	if drop {
		return nil // lost in transit
	}
	t.board.mu.Lock()
	dst := t.board.ports[addr]
	t.board.mu.Unlock()
	if dst == nil {
		return fmt.Errorf("coap: no endpoint %q", addr)
	}
	dst.mu.Lock()
	recv := dst.recv
	dst.mu.Unlock()
	if recv != nil {
		recv(t.addr, netbuf.CloneBytes(data))
	}
	return nil
}

// SetReceiver implements Transport.
func (t *LoopTransport) SetReceiver(fn func(from string, data []byte)) {
	t.mu.Lock()
	t.recv = fn
	t.mu.Unlock()
}

// LocalAddr implements Transport.
func (t *LoopTransport) LocalAddr() string { return t.addr }

// Close implements Transport.
func (t *LoopTransport) Close() error {
	t.board.mu.Lock()
	delete(t.board.ports, t.addr)
	t.board.mu.Unlock()
	return nil
}

var _ Transport = (*LoopTransport)(nil)

package coap

import (
	"fmt"
	"net"
	"sync"
)

// Transport moves opaque CoAP datagrams between endpoints identified by
// string addresses. Implementations exist for real UDP sockets, for the
// emulated RPL mesh (internal/core) and in memory (a gossip.Network
// port), which is what lets the same middleware code run in all three
// worlds.
type Transport interface {
	// Send transmits one datagram to addr. It must not retain data past
	// the call — senders reuse the buffer for the next datagram — so a
	// transport that delivers later, or hands data to a receiver that
	// keeps it, copies first.
	Send(addr string, data []byte) error
	// SetReceiver installs the inbound datagram callback. It must be
	// called exactly once, before any datagram arrives. data is valid
	// only for the call: the transport may reuse it once fn returns, so
	// a receiver that keeps any of it copies it first (Conn does, once,
	// as it decodes).
	SetReceiver(fn func(from string, data []byte))
	// LocalAddr returns this endpoint's address.
	LocalAddr() string
	// Close releases transport resources.
	Close() error
}

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
			recv(from.String(), buf[:n])
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

package gossip

import (
	"fmt"
	"sort"
	"sync"

	"iiotds/internal/netbuf"
)

// Network is the in-memory datagram fabric: named ports, synchronous
// copy-on-send delivery, and two fault surfaces — partition groups
// between ports and deterministic outbound loss per port. A Port is both
// a Messenger and a coap.Transport, so the store's replica links and the
// backend's gateway link are cut, dropped and counted the same way.
type Network struct {
	mu        sync.Mutex
	ports     map[string]*Port
	partition map[string]int // port -> partition group; absent = group 0
	// Dropped counts datagrams suppressed by partitions.
	Dropped int
}

// NewNetwork returns an empty fabric.
func NewNetwork() *Network {
	return &Network{ports: make(map[string]*Port), partition: make(map[string]int)}
}

// Attach registers a port under name, which must be free.
func (n *Network) Attach(name string) *Port {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.ports[name]; dup {
		panic(fmt.Sprintf("gossip: port %q attached twice", name))
	}
	p := &Port{net: n, name: name}
	n.ports[name] = p
	return p
}

// SetPartition places each listed group of ports in its own partition;
// ports not listed go to group 0. Passing no groups heals the network.
func (n *Network) SetPartition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
	for i, g := range groups {
		for _, name := range g {
			n.partition[name] = i + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() { n.SetPartition() }

// Port is one endpoint's attachment to a Network. All of its state is
// guarded by the network's lock.
type Port struct {
	net  *Network
	name string
	recv func(from string, data []byte)

	dropEvery, dropFirst, sent int
}

// Send delivers a copy of data to the port named to, inside the call.
// A datagram lost to this port's drop schedule or to a partition is
// lost silently, as on a real link; only an unknown destination is an
// error.
func (p *Port) Send(to string, data []byte) error {
	n := p.net
	n.mu.Lock()
	p.sent++
	lost := p.dropEvery > 0 && p.sent%p.dropEvery == 0
	if p.dropFirst > 0 {
		p.dropFirst--
		lost = true
	}
	if !lost && n.partition[p.name] != n.partition[to] {
		n.Dropped++
		lost = true
	}
	var recv func(string, []byte)
	dst, ok := n.ports[to]
	if ok {
		recv = dst.recv
	}
	n.mu.Unlock()
	switch {
	case lost:
		return nil
	case !ok:
		return fmt.Errorf("gossip: no port %q", to)
	case recv != nil:
		recv(p.name, netbuf.CloneBytes(data))
	}
	return nil
}

// SetReceiver installs the inbound datagram callback.
func (p *Port) SetReceiver(fn func(from string, data []byte)) {
	p.net.mu.Lock()
	p.recv = fn
	p.net.mu.Unlock()
}

// SetDropEvery makes the port lose every k-th outbound datagram
// (deterministic loss for retransmission tests); 0 turns it off.
func (p *Port) SetDropEvery(k int) {
	p.net.mu.Lock()
	p.dropEvery = k
	p.net.mu.Unlock()
}

// SetDropFirst makes the port lose its next k outbound datagrams.
func (p *Port) SetDropFirst(k int) {
	p.net.mu.Lock()
	p.dropFirst = k
	p.net.mu.Unlock()
}

// Sent returns the number of Send calls, lost ones included.
func (p *Port) Sent() int {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	return p.sent
}

// Self implements Messenger.
func (p *Port) Self() string { return p.name }

// LocalAddr implements coap.Transport.
func (p *Port) LocalAddr() string { return p.name }

// Peers implements Messenger: the other attached ports, sorted.
func (p *Port) Peers() []string {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	out := make([]string, 0, len(p.net.ports))
	for name := range p.net.ports {
		if name != p.name {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Close implements coap.Transport: it detaches the port, so sends to
// its name fail and its name is free again.
func (p *Port) Close() error {
	p.net.mu.Lock()
	if p.net.ports[p.name] == p {
		delete(p.net.ports, p.name)
	}
	p.net.mu.Unlock()
	return nil
}

var _ Messenger = (*Port)(nil)

package core

import (
	"fmt"
	"strconv"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/gateway"
	"iiotds/internal/gossip"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/store"
)

// readingTag opens a reading datagram: {readingTag, value}.
const readingTag = 0x16

// gatewayAddr and appAddr name the two ends of the gateway link on the
// backend's private network.
const (
	gatewayAddr = "gateway"
	appAddr     = "app"
)

// Backend is everything behind the border router in Fig. 1: the
// replicated store and the observe gateway, fed through one hand-off
// (Publish), with the application-logic tier as a client of the gateway
// (Observe) and of the store (Store.Range). It lives on the root's
// substrate — its kernel, registry and recorder — so on a sharded
// deployment Publish, Observe and Flush belong to the root stripe's
// events or the control timeline.
type Backend struct {
	// Store is the storage tier; read it with Range, fault it with
	// PartitionReplica/Heal/Repair, judge it with Converged/Stats.
	Store *store.Sharded

	f   *Fleet
	k   *sim.Kernel // the root's
	app *store.Appender
	gw  *gateway.Gateway
	cli *coap.Conn      // application-tier client of gw
	net *gossip.Network // carries the gw–cli link; the same fabric type as Store's replica links

	names     []string // node/<id>/reading, by node ID
	delivered int
}

// AttachBackend builds the storage and gateway tiers on the root's
// substrate and makes the border router hand every well-formed reading
// (lowpan.ProtoIngest, {0x16, value}, from a fleet member) to Publish as
// series node/<src>/reading. cfg gives the store's shape and policy;
// seed, recorder, registry and trace node come from the fleet. Call it
// at most once, on a stack whose root has no ProtoIngest handler.
func (f *Fleet) AttachBackend(cfg store.ShardedConfig) *Backend {
	m := f.Medium(0)
	k := m.Kernel()
	sched := clock.Kernel{K: k}
	cfg.Seed, cfg.Rec, cfg.Metrics, cfg.Node = f.stack.Seed, m.Recorder(), m.Registry(), -1

	b := &Backend{
		Store: store.NewSharded(sched, cfg),
		f:     f,
		k:     k,
		names: make([]string, len(f.Nodes)),
	}
	b.app = b.Store.NewAppender()
	// Inline fan-out on a synchronous in-memory transport: a Publish
	// reaches every observer before it returns, at the same virtual
	// instant and in coap.Resource.Notify's fixed order (shard index,
	// then registration), which keeps the deployment deterministic
	// (DESIGN.md §5).
	b.net = gossip.NewNetwork()
	srv := coap.NewConn(b.net.Attach(gatewayAddr), sched, coap.ConnConfig{Seed: f.stack.Seed})
	b.gw = gateway.New(srv, gateway.Config{Inline: true, Sched: sched, Metrics: m.Registry()})
	b.cli = coap.NewConn(b.net.Attach(appAddr), sched, coap.ConnConfig{Seed: f.stack.Seed + 1})

	for i := range b.names {
		b.names[i] = fmt.Sprintf("node/%d/reading", i)
	}
	f.Root().Router.Handle(lowpan.ProtoIngest, b.handOff)
	return b
}

// handOff is the border router's ingest handler. The source is the
// datagram's, never the payload's; anything malformed or from outside
// the fleet is dropped uncounted.
func (b *Backend) handOff(src radio.NodeID, payload []byte) {
	if len(payload) != 2 || payload[0] != readingTag || src <= 0 || int(src) >= len(b.names) {
		return
	}
	b.delivered++
	b.Publish(b.names[src], store.Point{T: b.k.Now(), V: float64(payload[1])})
}

// Publish is the single hand-off into the backend tiers: p is appended
// to series in the store (batched; see Flush) and its value offered to
// the gateway as text, reaching every observer of series before Publish
// returns.
func (b *Backend) Publish(series string, p store.Point) {
	b.app.Append(series, p)
	b.gw.Publish(series, coap.FormatText, strconv.AppendFloat(nil, p.V, 'g', -1, 64))
}

// Observe subscribes application logic to series through the gateway:
// fn runs inline for every value published from now on (and once with
// the current value if there already is one).
func (b *Backend) Observe(series string, fn func(v float64)) {
	// A registration against a cold cache would be refused with 5.03;
	// answer it with an empty representation, which the parse below
	// discards like any other non-numeric payload.
	b.gw.AddResource(series, "", func(string, *coap.Message) *coap.Message { return coap.TextResponse("") })
	b.cli.Observe(gatewayAddr, series, func(m *coap.Message, err error) {
		if err != nil {
			return
		}
		if v, err := strconv.ParseFloat(string(m.Payload), 64); err == nil {
			fn(v)
		}
	})
}

// Feed starts the sensing workload: every non-root node pushes its
// reading up the DODAG each period (StartPush, so on its own kernel),
// and the appender's partial batches are flushed every flushEvery. The
// Push counts the readings sent; its Stop ends both.
func (b *Backend) Feed(every, flushEvery time.Duration) *Push {
	p := b.f.StartPush(b.f.Nodes[1:], lowpan.ProtoIngest, every, every/4, func(n *Node) []byte {
		if !n.Up() {
			return nil
		}
		return []byte{readingTag, byte(n.ID)}
	})
	p.reps = append(p.reps, b.k.Every(flushEvery, 0, b.Flush))
	return p
}

// Flush pushes the appender's partial batches to their shards.
func (b *Backend) Flush() { b.app.Flush() }

// Delivered returns how many readings the border router handed off.
func (b *Backend) Delivered() int { return b.delivered }

// Batches returns how many flushed store batches were acked and how
// many failed (CP quorum loss).
func (b *Backend) Batches() (acked, failed uint64) { return b.app.Acked(), b.app.Failed() }

// Close stops the store's background activity and the gateway. The
// two CoAP endpoints hold nothing but ports on the private network,
// which goes with the Backend.
func (b *Backend) Close() {
	b.Store.Stop()
	b.gw.Close()
}

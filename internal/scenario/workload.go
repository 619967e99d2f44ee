package scenario

import (
	"encoding/binary"
	"errors"
	"time"

	"iiotds/internal/agg"
	"iiotds/internal/coap"
	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/security"
	"iiotds/internal/sim"
)

// The sensing-layer workloads, written once against core.Fleet so Run,
// the experiments and iiotsim drive the same loops on either engine. The
// per-node push is core.Fleet.StartPush, which core.Backend.Feed runs on
// too; the heartbeat here is one more. A node's repeater lives on that
// node's own kernel, and counters are per node, summed on read, so
// stripes never write one word. A jittered repeater draws from its
// kernel when created and after every firing, so start order, node order
// and skip-versus-stop all show in every table built on these drivers
// (DESIGN.md §8).

// Probe is a running CoAP probe; see StartProbe. Its counters belong to
// the root's kernel.
type Probe struct {
	// OK and Fail count finished exchanges; Outstanding counts requests
	// still waiting for a response or their retransmission budget.
	OK, Fail, Outstanding int
	*sim.Repeater         // Stop ends the probing; exchanges in flight still finish
}

// StartProbe makes every target serve GET /status and has the border
// router walk the targets round-robin with one confirmable GET per
// period, on its own kernel. Requests to a crashed node exercise the
// retransmit-then-ErrTimeout path. The fleet's profiles must be
// WithCoAP.
func StartProbe(f *core.Fleet, targets []radio.NodeID, every time.Duration) *Probe {
	for _, id := range targets {
		f.Nodes[int(id)].Server.Resource("status").Get(
			func(string, *coap.Message) *coap.Message { return coap.TextResponse("ok") })
	}
	p := &Probe{}
	next := 0
	p.Repeater = f.Kernel(0).Every(every, 0, func() {
		id := targets[next%len(targets)]
		next++
		p.Outstanding++
		f.Root().CoAP.Get(f.Nodes[int(id)].Addr(), "status", func(m *coap.Message, err error) {
			p.Outstanding--
			if err == nil && m.Code.IsSuccess() {
				p.OK++
			} else {
				p.Fail++
			}
		})
	})
	return p
}

// StartAgg has every non-root node answer samples with sample(n) and
// runs the continuous query q from the border router; onResult sees
// every epoch's result, on the root's kernel. sample runs on its node's
// kernel and must draw randomness from nowhere else.
func StartAgg(f *core.Fleet, q agg.Query, sample func(n *core.Node) float64, onResult func(agg.Result)) {
	for _, n := range f.Nodes[1:] {
		n.SetSampler(func(string) (float64, bool) { return sample(n), true })
	}
	f.Root().Agg.OnResult = onResult
	f.Root().Agg.RunQuery(q)
}

// scenarioPSK is the fleet-wide pre-shared key the heartbeat sessions
// derive from. A fixed key is fine: the invariant observes counter
// discipline, not key secrecy.
var scenarioPSK = []byte("iiotds/scenario heartbeat psk v1")

// rekeyOnReboot controls whether a recovered node re-establishes its
// heartbeat session (fresh key, fresh counters on both ends) — the
// correct behavior. Tests set it to false to reintroduce the
// reuse-old-session-after-reboot bug class and prove the
// replay-monotone invariant catches it.
var rekeyOnReboot = true

// Heartbeat is the running secured heartbeat workload: every non-root
// node holds an AEAD session to the root (security.Channel each way)
// and periodically seals a monotone sequence number to it over
// ProtoScenario. A reboot re-derives the session from a per-incarnation
// nonce on both ends — the discipline whose absence the
// replay-monotone invariant detects: reusing the old session after a
// reboot restarts the frame counter and the root's anti-replay window
// rejects genuine frames.
type Heartbeat struct {
	*core.Push
	OK int // heartbeats the root opened; written on the root's kernel

	send []*security.Channel // per node: node → root sealer
	recv []*security.Channel // per node: root-side opener
	inc  []int               // per node: incarnation number
	seq  []uint64            // per node: application sequence
}

// StartHeartbeat installs the root's opener and starts one sender per
// non-root node. replayed is told, on the root's kernel, of every node
// whose genuine frame the root's anti-replay window rejected.
func StartHeartbeat(f *core.Fleet, every time.Duration, replayed func(node int)) *Heartbeat {
	n := len(f.Nodes)
	h := &Heartbeat{
		send: make([]*security.Channel, n),
		recv: make([]*security.Channel, n),
		inc:  make([]int, n),
		seq:  make([]uint64, n),
	}
	for i := 1; i < n; i++ {
		h.rekey(i)
	}
	f.Root().Router.Handle(lowpan.ProtoScenario, func(src radio.NodeID, payload []byte) {
		i := int(src)
		if i <= 0 || i >= n {
			return
		}
		_, err := h.recv[i].Open(payload, nil)
		switch {
		case err == nil:
			h.OK++
		case errors.Is(err, security.ErrReplay):
			// The sender's counter ran backwards past the root's window.
			replayed(i)
		}
		// ErrAuth is tolerated: a frame sealed under the previous
		// incarnation's key can legitimately arrive (multi-hop delay)
		// after a rekey.
	})
	h.Push = f.StartPush(f.Nodes[1:], lowpan.ProtoScenario, every, every/4, func(n *core.Node) []byte {
		if !n.Up() {
			return nil
		}
		h.seq[n.ID]++
		return h.send[n.ID].Seal(binary.BigEndian.AppendUint64(nil, h.seq[n.ID]), nil)
	})
	return h
}

// rekey (re-)derives node i's session for its current incarnation and
// installs fresh channels — counters and replay windows restart
// together on both ends, which is what keeps the counter stream the
// root sees monotone per session.
func (h *Heartbeat) rekey(i int) {
	var nonce [12]byte
	binary.BigEndian.PutUint32(nonce[0:4], uint32(i))
	binary.BigEndian.PutUint64(nonce[4:12], uint64(h.inc[i]))
	key := security.DeriveSessionKey(scenarioPSK, nonce[:], []byte("root"))
	ks := security.NewKeyStore()
	if err := ks.Set(1, key); err != nil {
		panic(err)
	}
	send, err := security.NewChannel(ks, 1)
	if err != nil {
		panic(err)
	}
	recv, err := security.NewChannel(ks, 1)
	if err != nil {
		panic(err)
	}
	h.send[i], h.recv[i] = send, recv
}

// Reboot tells the workload that node id recovered from a crash (on the
// fleet's timeline). The correct discipline is a full re-key; with
// rekeyOnReboot disabled (bug injection) the node rebuilds only its
// sender from the old session key — modeling a device that lost its
// volatile frame counter but kept its provisioned key — so its counters
// restart behind the root's replay window.
func (h *Heartbeat) Reboot(id radio.NodeID) {
	i := int(id)
	if i <= 0 || i >= len(h.send) {
		return
	}
	if rekeyOnReboot {
		h.inc[i]++
		h.rekey(i)
		return
	}
	// Bug injection: the incarnation is not bumped, so rekey rebuilds
	// the sender under the SAME key with a restarted frame counter;
	// restoring the old receiver keeps the root's advanced window —
	// the rebooted node now replays counters the root has seen.
	old := h.recv[i]
	h.rekey(i)
	h.recv[i] = old
}

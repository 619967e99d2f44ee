// Package gossip provides the anti-entropy replication engine that keeps
// CRDT state converging across replicas: periodic push-pull delta
// exchange with randomly chosen peers (paper refs [24,25]). It is the
// availability mechanism §V-C calls for — replicas accept updates locally
// at all times and reconcile when connectivity allows.
package gossip

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"iiotds/internal/clock"
)

// Messenger moves opaque gossip payloads between named peers. A Port of
// the in-memory Network (network.go) implements it, with partition and
// loss injection.
type Messenger interface {
	// Send delivers data to peer (best effort).
	Send(peer string, data []byte) error
	// SetReceiver installs the inbound callback; call once.
	SetReceiver(fn func(from string, data []byte))
	// Self returns this node's name.
	Self() string
	// Peers returns the other replicas' names.
	Peers() []string
}

// State is the replicated object the engine synchronizes, as a
// summary/delta/merge triple: a summary says what a replica holds, a
// delta is what one replica holds beyond another's summary, and merging
// a delta is commutative, associative and idempotent. A state-based
// CRDT with no cheaper description of itself is the degenerate case:
// empty summary, whole state as the delta.
type State interface {
	// Summary appends a description of the local state, sufficient for
	// a peer to work out what this side is missing.
	Summary(dst []byte) []byte
	// Delta appends what the local state holds beyond the peer's
	// summary, and nothing when the peer is missing nothing.
	Delta(dst, summary []byte) ([]byte, error)
	// Merge folds a peer's delta into the local state. A delta that
	// does not parse must leave the state untouched.
	Merge(delta []byte) error
}

// Config tunes the engine.
type Config struct {
	// Interval between gossip rounds (default 1 s).
	Interval time.Duration
	// Seed seeds peer selection (default 1).
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// The wire format. One exchange is up to three frames, all sent inside
// the initiator's round (no timers, no retained per-peer state):
//
//	syn  A -> B  A's summary
//	ack  B -> A  B's summary, and what B holds beyond A's
//	fin  A -> B  what A holds beyond B's (omitted when nothing)
//
//	frame := frameMagic kind body
//	syn body := summary
//	ack body := uvarint(len(summary)) summary delta
//	fin body := delta
//
// Every frame stands alone: a lost, duplicated or reordered one costs
// at most a round, because the next syn restates what is still missing.
const frameMagic = 0xA7

const (
	kindSyn = 1 + iota
	kindAck
	kindFin
)

// parseFrame splits a frame into its parts; the slices alias data.
func parseFrame(data []byte) (kind byte, summary, delta []byte, err error) {
	if len(data) < 2 || data[0] != frameMagic {
		return 0, nil, nil, fmt.Errorf("gossip: not a gossip frame")
	}
	kind, body := data[1], data[2:]
	switch kind {
	case kindSyn:
		return kind, body, nil, nil
	case kindAck:
		n, used := binary.Uvarint(body)
		if used <= 0 || n > uint64(len(body)-used) {
			return 0, nil, nil, fmt.Errorf("gossip: truncated ack summary")
		}
		return kind, body[used : used+int(n)], body[used+int(n):], nil
	case kindFin:
		return kind, nil, body, nil
	}
	return 0, nil, nil, fmt.Errorf("gossip: unknown frame kind %d", kind)
}

// Engine runs anti-entropy rounds for one replica.
type Engine struct {
	msg   Messenger
	sched clock.Scheduler
	state State
	cfg   Config

	mu      sync.Mutex
	rng     *rand.Rand
	stop    clock.CancelFunc
	running bool

	// RoundsRun and BytesSent instrument convergence cost (E9); BytesSent
	// counts every frame handed to Messenger.Send. Rejected counts
	// inbound frames dropped because they, their summary or their delta
	// did not parse.
	RoundsRun int
	BytesSent int
	Rejected  int
}

// New creates an engine; call Start to begin rounds.
func New(msg Messenger, sched clock.Scheduler, state State, cfg Config) *Engine {
	cfg.applyDefaults()
	e := &Engine{
		msg:   msg,
		sched: sched,
		state: state,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	msg.SetReceiver(e.onMessage)
	return e
}

// Start begins periodic rounds.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return
	}
	e.running = true
	e.armLocked()
}

func (e *Engine) armLocked() {
	// Jitter each round ±25% so replica schedules do not lock step.
	d := e.cfg.Interval
	jitter := time.Duration(e.rng.Int63n(int64(d)/2+1)) - d/4
	e.stop = e.sched.Schedule(d+jitter, func() {
		e.round()
		e.mu.Lock()
		if e.running {
			e.armLocked()
		}
		e.mu.Unlock()
	})
}

// Stop halts the engine.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.running = false
	if e.stop != nil {
		e.stop()
	}
}

// round opens one exchange with one random peer: the head of a full
// shuffle, whose draws the E9/E16 tables pin.
func (e *Engine) round() {
	peers := e.msg.Peers()
	if len(peers) == 0 {
		return
	}
	e.mu.Lock()
	e.RoundsRun++
	e.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	e.mu.Unlock()

	e.send(peers[0], e.state.Summary([]byte{frameMagic, kindSyn}))
}

func (e *Engine) send(peer string, frame []byte) {
	e.mu.Lock()
	e.BytesSent += len(frame)
	e.mu.Unlock()
	_ = e.msg.Send(peer, frame) // best effort: the next round restates what is missing
}

func (e *Engine) reject() {
	e.mu.Lock()
	e.Rejected++
	e.mu.Unlock()
}

func (e *Engine) onMessage(from string, data []byte) {
	kind, summary, delta, err := parseFrame(data)
	if err != nil {
		e.reject()
		return
	}
	if len(delta) > 0 {
		if err := e.state.Merge(delta); err != nil {
			e.reject()
			return
		}
	}
	switch kind {
	case kindSyn:
		own := e.state.Summary(nil)
		ack := binary.AppendUvarint([]byte{frameMagic, kindAck}, uint64(len(own)))
		ack = append(ack, own...)
		if ack, err = e.state.Delta(ack, summary); err != nil {
			e.reject()
			return
		}
		e.send(from, ack)
	case kindAck:
		fin, err := e.state.Delta([]byte{frameMagic, kindFin}, summary)
		if err != nil {
			e.reject()
			return
		}
		if len(fin) > 2 {
			e.send(from, fin)
		}
	}
}

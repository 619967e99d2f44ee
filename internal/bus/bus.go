// Package bus is the topic-based publish/subscribe fabric of the
// application-logic tier: the middleware through which sensing-layer
// observations reach rules, storage, and operator dashboards (§III-B).
// Topics are "/"-separated; subscriptions support MQTT-style "+" (one
// level) and "#" (rest) wildcards and retained messages. Delivery is
// inline on the publisher's goroutine, so a deployment on the
// single-threaded event kernel stays deterministic.
package bus

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"iiotds/internal/metrics"
	"iiotds/internal/netbuf"
	"iiotds/internal/trace"
)

// Message is one published event.
type Message struct {
	Topic    string
	Payload  []byte
	Retained bool
}

// Handler consumes messages for one subscription. The payload may be a
// view into the publisher's buffer (often a pooled packet buffer from
// the network stack), valid only for the duration of the call: copy
// with netbuf.CloneBytes to retain it.
type Handler func(m Message)

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = errors.New("bus: broker closed")

// subscription is one registered handler.
type subscription struct {
	id      uint64
	pattern []string
	handler Handler
}

// Broker routes messages from publishers to subscribers.
type Broker struct {
	mu       sync.Mutex
	subs     map[uint64]*subscription
	retained map[string]Message
	nextID   uint64
	closed   bool

	published *metrics.Counter
	delivered *metrics.Counter

	// rec, when set, receives publish/deliver trace events.
	rec *trace.Recorder
}

// NewBroker returns a broker that delivers every message inline on the
// publisher's goroutine, in subscription order, before Publish returns.
// Handlers run on the caller's thread — in a simulated deployment the
// simulation thread, so they may touch the (single-threaded) event
// kernel — and delivery order is deterministic. Handlers may publish
// recursively; no queues exist, so nothing is ever dropped.
func NewBroker() *Broker {
	b := &Broker{
		subs:     make(map[uint64]*subscription),
		retained: make(map[string]Message),
	}
	b.UseRegistry(metrics.NewRegistry())
	return b
}

// UseRegistry points the broker's routing counters ("bus.published",
// "bus.delivered") at reg, so they appear in the deployment-wide
// snapshot. Call before any traffic flows.
func (b *Broker) UseRegistry(reg *metrics.Registry) {
	b.published = reg.Counter("bus.published")
	b.delivered = reg.Counter("bus.delivered")
}

// SetTrace installs a flight recorder. The recorder is not
// concurrency-safe: a traced broker must be published to from one
// goroutine.
func (b *Broker) SetTrace(rec *trace.Recorder) { b.rec = rec }

// Published returns how many messages have been accepted for routing.
func (b *Broker) Published() uint64 { return uint64(b.published.Value()) }

// Delivered returns how many messages have been handed to subscribers.
func (b *Broker) Delivered() uint64 { return uint64(b.delivered.Value()) }

// Subscription identifies an active subscription for cancellation.
type Subscription struct {
	id     uint64
	broker *Broker
}

// Cancel removes the subscription. Idempotent.
func (s *Subscription) Cancel() {
	s.broker.mu.Lock()
	delete(s.broker.subs, s.id)
	s.broker.mu.Unlock()
}

// Subscribe registers handler for all topics matching pattern. Matching
// retained messages are delivered, in topic order, before it returns.
func (b *Broker) Subscribe(pattern string, handler Handler) (*Subscription, error) {
	if err := validatePattern(pattern); err != nil {
		return nil, err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.nextID++
	sub := &subscription{
		id:      b.nextID,
		pattern: strings.Split(pattern, "/"),
		handler: handler,
	}
	b.subs[sub.id] = sub
	// Replay retained messages that match, in deterministic topic order.
	var topics []string
	for topic, m := range b.retained {
		if topicMatches(sub.pattern, strings.Split(m.Topic, "/")) {
			topics = append(topics, topic)
		}
	}
	sort.Strings(topics)
	replay := make([]Message, 0, len(topics))
	for _, topic := range topics {
		replay = append(replay, b.retained[topic])
	}
	b.mu.Unlock()

	for _, m := range replay {
		b.deliver(sub, m)
	}
	return &Subscription{id: sub.id, broker: b}, nil
}

// deliver runs sub's handler on m, on the caller's goroutine.
func (b *Broker) deliver(sub *subscription, m Message) {
	b.rec.Emit(-1, trace.BusDeliver, int64(sub.id), int64(len(m.Payload)), 0, 0)
	sub.handler(m)
	b.delivered.Inc()
}

// Publish routes m to all matching subscriptions. With retain, the
// message also replaces the retained message for its topic.
func (b *Broker) Publish(topic string, payload []byte, retain bool) error {
	if strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("bus: topic %q must not contain wildcards", topic)
	}
	m := Message{Topic: topic, Payload: payload, Retained: false}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.published.Inc()
	b.rec.Emit(-1, trace.BusPublish, int64(len(topic)), int64(len(m.Payload)), 0, 0)
	if retain {
		// The retained copy outlives the publish call, so it must own its
		// payload — the caller's slice may be a pooled-buffer view that is
		// recycled the moment this returns.
		r := m
		r.Retained = true
		r.Payload = netbuf.CloneBytes(m.Payload)
		b.retained[topic] = r
	}
	parts := strings.Split(topic, "/")
	var targets []*subscription
	for _, sub := range b.subs {
		if topicMatches(sub.pattern, parts) {
			targets = append(targets, sub)
		}
	}
	// Deliver in subscription order so delivery is deterministic
	// regardless of map iteration.
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })
	b.mu.Unlock()
	for _, sub := range targets {
		b.deliver(sub, m)
	}
	return nil
}

// Close shuts the broker down: every subscription is removed, and
// Publish and Subscribe return ErrClosed from now on. Idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	clear(b.subs)
	b.mu.Unlock()
}

// RetainedTopics returns the topics with retained messages, sorted.
func (b *Broker) RetainedTopics() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.retained))
	for t := range b.retained {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// validatePattern checks wildcard placement: "+" must occupy a whole
// level; "#" must be the final level.
func validatePattern(pattern string) error {
	if pattern == "" {
		return errors.New("bus: empty pattern")
	}
	parts := strings.Split(pattern, "/")
	for i, p := range parts {
		if strings.Contains(p, "#") && (p != "#" || i != len(parts)-1) {
			return fmt.Errorf("bus: '#' must be the final level in %q", pattern)
		}
		if strings.Contains(p, "+") && p != "+" {
			return fmt.Errorf("bus: '+' must occupy a whole level in %q", pattern)
		}
	}
	return nil
}

// topicMatches reports whether a topic matches a pattern.
func topicMatches(pattern, topic []string) bool {
	for i, p := range pattern {
		if p == "#" {
			return true
		}
		if i >= len(topic) {
			return false
		}
		if p != "+" && p != topic[i] {
			return false
		}
	}
	return len(pattern) == len(topic)
}

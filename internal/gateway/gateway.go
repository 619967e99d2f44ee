// Package gateway builds the paper's Fig. 1 border-router tier into a
// load-bearing observe gateway: the constrained mesh (or a device
// adapter) publishes representations into the gateway once, and the
// gateway fans them out to very large CoAP observer populations and
// serves HTTP/JSON polling clients from a last-value cache — so neither
// kind of client ever touches the mesh per read.
//
// The pieces, catalogued by the edge-middleware survey the ROADMAP cites
// (Renart et al.): a sharded observer registry with per-shard fan-out
// workers (internal/coap's notify pool), per-resource notification
// coalescing (bursty updates collapse into one representation push),
// admission control (observer caps answered with 5.03 + Max-Age), and a
// last-value cache behind both the CoAP GET handler and the HTTP read
// path.
package gateway

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/metrics"
)

// Config tunes one Gateway.
type Config struct {
	// MaxObservers caps observers per resource (admission control);
	// <= 0 keeps coap.DefaultMaxObservers.
	MaxObservers int
	// RejectMaxAge is the Max-Age retry hint (seconds) carried on 5.03
	// admission rejects; 0 omits the option.
	RejectMaxAge uint32
	// Coalesce is the minimum interval between notification pushes per
	// resource: offers arriving faster collapse into one trailing push
	// carrying the newest representation. 0 pushes every offer.
	Coalesce time.Duration
	// ConfirmEvery makes every n-th notification confirmable
	// (dead-observer detection); 0 keeps the protocol default (8),
	// negative disables confirmables.
	ConfirmEvery int
	// QueueLen bounds each observer shard's outbound notify queue;
	// <= 0 selects the coap default.
	QueueLen int
	// Inline disables the parallel fan-out pool: Notify delivers
	// synchronously, in deterministic (address-sorted) order. Required
	// when the gateway runs on virtual time inside a simulation — pool
	// workers are real goroutines and would race the virtual clock.
	Inline bool
	// Sched drives coalescer timers; nil selects the system clock.
	Sched clock.Scheduler
	// Metrics, when set, receives gateway instrumentation.
	Metrics *metrics.Registry
}

// Gateway owns the observe fan-out machinery on top of one CoAP endpoint.
type Gateway struct {
	cfg   Config
	conn  *coap.Conn
	srv   *coap.Server
	sched clock.Scheduler
	cache *Cache

	mu sync.Mutex
	co map[string]*Coalescer

	reg       *metrics.Registry
	published *metrics.Counter // representation pushes that reached Notify
	offered   *metrics.Counter // Publish calls
	coalesced *metrics.Counter // offers absorbed into a pending push
}

// New wires a Gateway onto conn: it installs a coap.Server configured
// for gateway-scale observe (sharded fan-out pool, observer caps,
// admission-reject Max-Age) and an empty last-value cache.
func New(conn *coap.Conn, cfg Config) *Gateway {
	sched := cfg.Sched
	if sched == nil {
		sched = &clock.System{}
	}
	srv := coap.NewServer()
	if cfg.MaxObservers > 0 {
		srv.SetObserverLimit(cfg.MaxObservers)
	}
	srv.SetRejectMaxAge(cfg.RejectMaxAge)
	srv.SetConfirmEvery(cfg.ConfirmEvery)
	g := &Gateway{
		cfg:   cfg,
		conn:  conn,
		srv:   srv,
		sched: sched,
		cache: NewCache(sched),
		co:    make(map[string]*Coalescer),
		reg:   cfg.Metrics,
	}
	if g.reg != nil {
		g.published = g.reg.Counter("gw.notify.published")
		g.offered = g.reg.Counter("gw.notify.offered")
		g.coalesced = g.reg.Counter("gw.notify.coalesced")
	}
	conn.Serve(srv)
	if !cfg.Inline {
		srv.StartNotifyPool(cfg.QueueLen)
	}
	return g
}

// Server exposes the underlying CoAP server for extra routes (PUT
// handlers, discovery attributes).
func (g *Gateway) Server() *coap.Server { return g.srv }

// Cache exposes the last-value cache (the HTTP read path serves from it).
func (g *Gateway) Cache() *Cache { return g.cache }

// AddResource registers an observable resource whose GET serves from the
// last-value cache. fallback, when non-nil, answers reads while the
// cache is still cold (e.g. a synchronous device-adapter read); without
// one, cold reads get 5.03 so clients retry after the first publish.
func (g *Gateway) AddResource(path, rt string, fallback coap.HandlerFunc) *coap.Resource {
	r := g.srv.Resource(path).ResourceType(rt).Observable()
	r.Get(func(from string, req *coap.Message) *coap.Message {
		if e, ok := g.cache.Get(path); ok {
			return newCachedResponse(e)
		}
		if fallback != nil {
			return fallback(from, req)
		}
		return &coap.Message{Code: coap.CodeServiceUnavailable}
	})
	return r
}

// cachedResponse is a cache-served 2.05 with its options in one
// allocation: Content-Format, and room for the Observe option the server
// adds to a registration's answer.
type cachedResponse struct {
	msg  coap.Message
	opts [2]coap.Option
	cf   [4]byte
}

func newCachedResponse(e Entry) *coap.Message {
	c := &cachedResponse{}
	binary.BigEndian.PutUint32(c.cf[:], e.ContentFormat)
	c.opts[0] = coap.Option{ID: coap.OptContentFormat, Value: c.cf[4-(bits.Len32(e.ContentFormat)+7)/8:]}
	c.msg = coap.Message{Code: coap.CodeContent, Payload: e.Payload, Options: c.opts[:1]}
	return &c.msg
}

// Publish offers a new representation for path: it lands in the
// last-value cache and — subject to coalescing — fans out to every
// observer. The payload is copied; callers may reuse the slice.
func (g *Gateway) Publish(path string, contentFormat uint32, payload []byte) {
	if g.offered != nil {
		g.offered.Inc()
	}
	g.coalescer(path).Offer(contentFormat, payload)
}

func (g *Gateway) coalescer(path string) *Coalescer {
	g.mu.Lock()
	defer g.mu.Unlock()
	co, ok := g.co[path]
	if !ok {
		r := g.srv.Resource(path)
		co = NewCoalescer(g.sched, g.cfg.Coalesce, func(cf uint32, p []byte) {
			g.cache.Set(path, cf, p)
			if g.published != nil {
				g.published.Inc()
			}
			r.Notify(cf, p)
		})
		g.co[path] = co
	}
	return co
}

// Flush pushes any pending coalesced representations immediately.
func (g *Gateway) Flush() {
	g.mu.Lock()
	cos := make([]*Coalescer, 0, len(g.co))
	for _, co := range g.co {
		cos = append(cos, co)
	}
	g.mu.Unlock()
	for _, co := range cos {
		co.Flush()
	}
}

// Close flushes pending pushes and stops the fan-out pool.
func (g *Gateway) Close() {
	g.Flush()
	g.srv.StopNotifyPool()
}

// Stats is a point-in-time gateway census.
type Stats struct {
	Resources    int   `json:"resources"`
	Observers    int   `json:"observers"`
	Published    int64 `json:"published"`
	Offered      int64 `json:"offered"`
	Coalesced    int64 `json:"coalesced"`
	NotifyDrops  int64 `json:"notify_drops"`
	CacheEntries int   `json:"cache_entries"`
}

// Stats sums gateway-wide counters (observers across all resources,
// coalescer totals, backpressure drops).
func (g *Gateway) Stats() Stats {
	s := Stats{NotifyDrops: g.srv.NotifyDropped(), CacheEntries: g.cache.Len()}
	for _, p := range g.srv.Paths() {
		s.Resources++
		s.Observers += g.srv.Resource(p).ObserverCount()
	}
	g.mu.Lock()
	for _, co := range g.co {
		off, pushed, coal := co.Counts()
		s.Offered += off
		s.Coalesced += coal
		s.Published += pushed
	}
	g.mu.Unlock()
	return s
}

// String renders a one-line census for logs.
func (s Stats) String() string {
	return fmt.Sprintf("resources=%d observers=%d published=%d offered=%d coalesced=%d drops=%d",
		s.Resources, s.Observers, s.Published, s.Offered, s.Coalesced, s.NotifyDrops)
}

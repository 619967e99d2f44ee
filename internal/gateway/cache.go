package gateway

import (
	"sync"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/netbuf"
)

// Entry is one cached representation. Entries are immutable once stored:
// Set swaps in a fresh entry, so a reader's snapshot (including the
// payload slice) stays valid while a writer replaces it.
type Entry struct {
	Payload       []byte
	ContentFormat uint32
	Seq           uint64        // monotonically increasing per path
	At            time.Duration // scheduler time of the Set

	// resp is the 2.05 every cache-served CoAP GET of this
	// representation returns, built once by Set and shared: the server
	// copies it before stamping.
	resp coap.Message
}

// Cache is the gateway's last-value store: one entry per resource path,
// written on every representation push, read by the CoAP GET handler and
// the HTTP/JSON polling path — which is what keeps a million dashboard
// clients from ever touching the constrained mesh.
type Cache struct {
	sched clock.Scheduler

	mu sync.RWMutex
	m  map[string]*Entry
}

// NewCache returns an empty cache stamped by sched.
func NewCache(sched clock.Scheduler) *Cache {
	return &Cache{sched: sched, m: make(map[string]*Entry)}
}

// Set stores the latest representation for path (payload is copied).
func (c *Cache) Set(path string, contentFormat uint32, payload []byte) {
	e := &Entry{Payload: netbuf.CloneBytes(payload), ContentFormat: contentFormat, At: c.sched.Now()}
	e.resp = coap.Message{Code: coap.CodeContent, Payload: e.Payload}
	e.resp.AddUintOption(coap.OptContentFormat, contentFormat)
	c.mu.Lock()
	e.Seq = 1
	if old, ok := c.m[path]; ok {
		e.Seq = old.Seq + 1
	}
	c.m[path] = e
	c.mu.Unlock()
}

// Get returns the cached representation for path.
func (c *Cache) Get(path string) (Entry, bool) {
	if e := c.entry(path); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// entry returns the stored entry for path, or nil.
func (c *Cache) entry(path string) *Entry {
	c.mu.RLock()
	e := c.m[path]
	c.mu.RUnlock()
	return e
}

// Age reports how long ago the entry was stored.
func (c *Cache) Age(e Entry) time.Duration { return c.sched.Now() - e.At }

// Len returns the number of cached paths.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

package coap

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"iiotds/internal/netbuf"
)

// HandlerFunc serves one request method on one resource. It returns the
// response message (Code, Payload, Options); the message layer fills in
// type, token, and IDs. Returning nil suppresses the response.
type HandlerFunc func(from string, req *Message) *Message

// DefaultMaxObservers bounds observer state per resource when the server
// sets no limit — sized for constrained nodes. Gateways raise it for
// every resource via Server.SetObserverLimit.
const DefaultMaxObservers = 64

// defaultConfirmEvery makes every n-th notification confirmable so dead
// observers are eventually detected and dropped.
const defaultConfirmEvery = 8

// obsShards is the number of observer shards per resource. Sharding keys
// on the (addr, token) registration key, so lock contention and fan-out
// work spread evenly; it must be a power of two.
const obsShards = 16

// noMID is the registry value of an observer that has been sent no
// notification: it lies outside the 16-bit MID space, so no RST matches it.
const noMID = 1 << 16

// obsShard is one lock-striped slice of a resource's observer table. An
// observer is held by value: its registration key maps to the message ID
// of the last notification it was sent, or noMID. Fan-out stamps that MID
// and RST handling reads it, both under mu.
type obsShard struct {
	mu sync.Mutex
	m  map[tokenKey]uint32
	n  atomic.Int64 // len(m), readable without the lock
}

// Resource is one node in the server's resource tree.
type Resource struct {
	path   string
	server *Server

	mu         sync.Mutex // guards rt, observable, handlers
	rt         string     // resource type for /.well-known/core
	observable bool
	handlers   map[Code]HandlerFunc

	obsSeq atomic.Uint32
	nobs   atomic.Int64 // total observers across shards
	shards [obsShards]obsShard
}

// Server is a CoAP origin server: a set of resources plus the CoRE
// link-format discovery document (/.well-known/core, RFC 6690), which is
// what the registry layer uses for device discovery.
type Server struct {
	conn *Conn

	// resources is read without a lock; Resource, under mu, is its only
	// writer and replaces the map rather than mutating it.
	mu        sync.Mutex
	resources atomic.Pointer[map[string]*Resource]

	maxObs       atomic.Int64 // default per-resource cap; 0 = DefaultMaxObservers
	confirmEvery atomic.Int64 // 0 = defaultConfirmEvery, <0 = never confirmable
	rejectMaxAge atomic.Int64 // Max-Age (seconds) on 5.03 admission rejects; 0 = none

	pool atomic.Pointer[notifyPool]
}

// NewServer returns an empty server.
func NewServer() *Server {
	s := &Server{}
	s.resources.Store(&map[string]*Resource{})
	return s
}

// SetObserverLimit sets the default per-resource observer cap (admission
// control). n <= 0 restores DefaultMaxObservers.
func (s *Server) SetObserverLimit(n int) {
	if n < 0 {
		n = 0
	}
	s.maxObs.Store(int64(n))
}

// SetRejectMaxAge makes observe-admission rejects (5.03) carry a Max-Age
// option of age seconds, hinting clients when to retry. 0 disables the
// option (the default, and the constrained-node behavior).
func (s *Server) SetRejectMaxAge(age uint32) { s.rejectMaxAge.Store(int64(age)) }

// SetConfirmEvery makes every n-th notification per resource confirmable
// (dead-observer detection). n == 0 restores the default (8); n < 0
// disables confirmable notifications entirely.
func (s *Server) SetConfirmEvery(n int) { s.confirmEvery.Store(int64(n)) }

func (s *Server) confirmEveryVal() uint32 {
	v := s.confirmEvery.Load()
	switch {
	case v == 0:
		return defaultConfirmEvery
	case v < 0:
		return 0
	default:
		return uint32(v)
	}
}

// Resource registers (or returns) the resource at path.
func (s *Server) Resource(path string) *Resource {
	path = strings.Trim(path, "/")
	if r, ok := (*s.resources.Load())[path]; ok {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.resources.Load()
	r, ok := cur[path]
	if !ok {
		r = &Resource{
			path:     path,
			handlers: make(map[Code]HandlerFunc),
			server:   s,
		}
		next := maps.Clone(cur)
		next[path] = r
		s.resources.Store(&next)
	}
	return r
}

// Paths returns all registered resource paths, sorted.
func (s *Server) Paths() []string {
	resources := *s.resources.Load()
	out := make([]string, 0, len(resources))
	for p := range resources {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Get installs the GET handler. It returns r for chaining.
func (r *Resource) Get(fn HandlerFunc) *Resource { r.setHandler(CodeGET, fn); return r }

// Put installs the PUT handler.
func (r *Resource) Put(fn HandlerFunc) *Resource { r.setHandler(CodePUT, fn); return r }

// Post installs the POST handler.
func (r *Resource) Post(fn HandlerFunc) *Resource { r.setHandler(CodePOST, fn); return r }

// Delete installs the DELETE handler.
func (r *Resource) Delete(fn HandlerFunc) *Resource { r.setHandler(CodeDELETE, fn); return r }

func (r *Resource) setHandler(code Code, fn HandlerFunc) {
	r.mu.Lock()
	r.handlers[code] = fn
	r.mu.Unlock()
}

// Observable marks the resource as observable (RFC 7641).
func (r *Resource) Observable() *Resource {
	r.mu.Lock()
	r.observable = true
	r.mu.Unlock()
	return r
}

// ResourceType sets the rt= attribute advertised in /.well-known/core.
func (r *Resource) ResourceType(rt string) *Resource {
	r.mu.Lock()
	r.rt = rt
	r.mu.Unlock()
	return r
}

func (r *Resource) maxObservers() int64 {
	if v := r.server.maxObs.Load(); v > 0 {
		return v
	}
	return DefaultMaxObservers
}

// ObserverCount returns the number of registered observers.
func (r *Resource) ObserverCount() int { return int(r.nobs.Load()) }

// shardOf maps a registration key onto its shard (FNV-1a over the
// address, then the token).
func shardOf(k *tokenKey) int {
	h := uint32(2166136261)
	for i := 0; i < len(k.addr); i++ {
		h ^= uint32(k.addr[i])
		h *= 16777619
	}
	for _, b := range k.token() {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h & (obsShards - 1))
}

// Notify pushes a new representation to every observer. Without a notify
// pool (Server.StartNotifyPool) the fan-out runs inline on the caller —
// deterministic, in ascending (address, token) order, which is what the
// simulation relies on. With a pool, each observer shard is dispatched to
// its own worker through a bounded queue; a full queue drops that shard's
// push (backpressure — the next notification carries the newer state).
func (r *Resource) Notify(contentFormat uint32, payload []byte) {
	srv := r.server
	if srv == nil || srv.conn == nil {
		return
	}
	seq := r.obsSeq.Add(1)
	if p := srv.pool.Load(); p != nil {
		p.dispatch(r, seq, contentFormat, payload)
		return
	}
	r.notifyAll(seq, contentFormat, payload)
}

// notifyAll is the inline (deterministic) fan-out: observers across all
// shards, sorted by (address, token), one message-ID block for the whole
// batch, each observer's MID stamped under its shard's lock.
func (r *Resource) notifyAll(seq, contentFormat uint32, payload []byte) {
	var keys []tokenKey
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	if len(keys) == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		return bytes.Compare(keys[i].token(), keys[j].token()) < 0
	})
	mid := r.server.conn.allocMIDs(len(keys))
	for i := range keys {
		k := &keys[i]
		sh := &r.shards[shardOf(k)]
		sh.mu.Lock()
		if _, ok := sh.m[*k]; ok { // not if it left since it was gathered
			sh.m[*k] = uint32(mid + uint16(i))
		}
		sh.mu.Unlock()
	}
	var enc notifyEncoder
	r.fanOut(keys, mid, seq, contentFormat, payload, &enc)
}

// notifyShard fans one notification out to one observer shard — the
// gateway hot path, zero allocations per observer at steady state
// (CI-gated). Under the shard lock it draws the MID block and stamps each
// observer's MID as it copies the keys into scratch, the caller's reused
// slice; it sends after unlocking and returns the (possibly grown) slice.
func (r *Resource) notifyShard(si int, seq, contentFormat uint32, payload []byte, enc *notifyEncoder, scratch []tokenKey) []tokenKey {
	scratch = scratch[:0]
	sh := &r.shards[si]
	sh.mu.Lock()
	if len(sh.m) == 0 {
		sh.mu.Unlock()
		return scratch
	}
	mid := r.server.conn.allocMIDs(len(sh.m))
	for k := range sh.m {
		sh.m[k] = uint32(mid + uint16(len(scratch)))
		scratch = append(scratch, k)
	}
	sh.mu.Unlock()
	r.fanOut(scratch, mid, seq, contentFormat, payload, enc)
	return scratch
}

// fanOut sends one notification to keys, in order, with consecutive
// message IDs from mid; for a NON round the message body (options +
// payload) is encoded once and per-observer packets are assembled in
// enc's reused buffer.
func (r *Resource) fanOut(keys []tokenKey, mid uint16, seq, contentFormat uint32, payload []byte, enc *notifyEncoder) {
	c := r.server.conn
	con := false
	if ce := r.server.confirmEveryVal(); ce > 0 {
		con = seq%ce == 0
	}
	if !con {
		enc.prepare(seq, contentFormat, payload)
	}
	for i := range keys {
		m := mid + uint16(i)
		if con {
			k := keys[i] // the failure callback outlives the caller's slice
			msg := &Message{Type: Confirmable, Code: CodeContent, Token: k.token(), Payload: payload, MessageID: m}
			msg.AddUintOption(OptObserve, seq)
			msg.AddUintOption(OptContentFormat, contentFormat)
			c.send(k.addr, msg, func(error) {
				// Unreachable observer: drop the registration.
				r.removeObserver(k.addr, k.token())
			})
		} else {
			k := &keys[i]
			_ = c.tr.Send(k.addr, enc.packet(m, k.token()))
		}
	}
}

// notifyEncoder assembles NON notification datagrams without allocating:
// the option block and payload are laid down once per notification, then
// each observer's packet patches in the 4-byte header and token. The
// encoded bytes are identical to Message.Marshal output (pinned by test).
type notifyEncoder struct {
	body []byte // options + payload marker + payload
	pkt  []byte // per-observer packet, reused between sends
}

// appendUintOpt appends one option with delta < 13 and a uint value.
func appendUintOpt(b []byte, delta int, v uint32) []byte {
	var vb [4]byte
	n := 0
	for x := v; x > 0; x >>= 8 {
		n++
	}
	for i := 0; i < n; i++ {
		vb[i] = byte(v >> (8 * (n - 1 - i)))
	}
	b = append(b, byte(delta)<<4|byte(n))
	return append(b, vb[:n]...)
}

// prepare encodes the shared body: Observe (6) and Content-Format (12)
// options in ascending-ID delta form, then the payload.
func (e *notifyEncoder) prepare(seq, contentFormat uint32, payload []byte) {
	b := appendUintOpt(e.body[:0], int(OptObserve), seq)
	b = appendUintOpt(b, int(OptContentFormat-OptObserve), contentFormat)
	if len(payload) > 0 {
		b = append(b, 0xFF)
		b = append(b, payload...)
	}
	e.body = b
}

// packet assembles the datagram for one observer. The returned slice is
// valid until the next packet call; transports must not retain it.
func (e *notifyEncoder) packet(mid uint16, token []byte) []byte {
	p := e.pkt[:0]
	p = append(p, version<<6|uint8(NonConfirmable)<<4|uint8(len(token)))
	p = append(p, uint8(CodeContent))
	p = append(p, byte(mid>>8), byte(mid))
	p = append(p, token...)
	p = append(p, e.body...)
	e.pkt = p
	return p
}

// notifyJob is one (resource, shard) fan-out unit of work.
type notifyJob struct {
	r       *Resource
	seq     uint32
	cf      uint32
	payload []byte
}

// notifyPool runs per-shard fan-out workers behind bounded queues. Worker
// i owns observer shard i of every resource, so no two workers ever touch
// the same observer and each holds only its own shard's lock.
type notifyPool struct {
	queues  []chan notifyJob
	wg      sync.WaitGroup
	dropped atomic.Int64
}

// StartNotifyPool switches Notify to parallel per-shard fan-out (one
// worker and one bounded queue per observer shard). Use on gateways over
// real transports; the inline path stays the default because only it
// sends in a deterministic order. queueLen <= 0 selects 256.
func (s *Server) StartNotifyPool(queueLen int) {
	if queueLen <= 0 {
		queueLen = 256
	}
	p := &notifyPool{queues: make([]chan notifyJob, obsShards)}
	for i := range p.queues {
		p.queues[i] = make(chan notifyJob, queueLen)
	}
	p.wg.Add(obsShards)
	for i := range p.queues {
		go p.worker(i)
	}
	if old := s.pool.Swap(p); old != nil {
		old.stop()
	}
}

// StopNotifyPool drains the pool and restores inline fan-out.
func (s *Server) StopNotifyPool() {
	if p := s.pool.Swap(nil); p != nil {
		p.stop()
	}
}

// NotifyDropped reports shard pushes rejected by full queues
// (backpressure drops) since the pool started.
func (s *Server) NotifyDropped() int64 {
	if p := s.pool.Load(); p != nil {
		return p.dropped.Load()
	}
	return 0
}

func (p *notifyPool) stop() {
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
}

func (p *notifyPool) worker(i int) {
	defer p.wg.Done()
	var enc notifyEncoder
	var scratch []tokenKey
	for job := range p.queues[i] {
		scratch = job.r.notifyShard(i, job.seq, job.cf, job.payload, &enc, scratch)
	}
}

func (p *notifyPool) dispatch(r *Resource, seq, cf uint32, payload []byte) {
	job := notifyJob{r: r, seq: seq, cf: cf, payload: payload}
	for i := 0; i < obsShards; i++ {
		if r.shards[i].n.Load() == 0 {
			continue
		}
		select {
		case p.queues[i] <- job:
		default:
			p.dropped.Add(1)
		}
	}
}

func (r *Resource) addObserver(addr string, token []byte) error {
	k := newTokenKey(addr, token)
	sh := &r.shards[shardOf(&k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[k]; ok {
		return nil // re-registration with the same token refreshes in place
	}
	if r.nobs.Add(1) > r.maxObservers() {
		r.nobs.Add(-1)
		return ErrTooManyObservers
	}
	if sh.m == nil {
		sh.m = make(map[tokenKey]uint32)
	}
	sh.m[k] = noMID
	sh.n.Store(int64(len(sh.m)))
	return nil
}

func (r *Resource) removeObserver(addr string, token []byte) {
	k := newTokenKey(addr, token)
	sh := &r.shards[shardOf(&k)]
	sh.mu.Lock()
	if _, ok := sh.m[k]; ok {
		delete(sh.m, k)
		sh.n.Store(int64(len(sh.m)))
		r.nobs.Add(-1)
	}
	sh.mu.Unlock()
}

// removeObserverByMID drops whatever observer at addr last received the
// notification with the given MID (RST handling).
func (s *Server) removeObserverByMID(addr string, mid uint16) {
	for _, r := range *s.resources.Load() {
		for i := range r.shards {
			sh := &r.shards[i]
			sh.mu.Lock()
			for k, last := range sh.m {
				if last == uint32(mid) && k.addr == addr {
					delete(sh.m, k)
					sh.n.Store(int64(len(sh.m)))
					r.nobs.Add(-1)
				}
			}
			sh.mu.Unlock()
		}
	}
}

// linkFormat renders the CoRE link-format discovery document.
func (s *Server) linkFormat() []byte {
	var sb strings.Builder
	paths := s.Paths()
	resources := *s.resources.Load() // resources are never removed: a superset of paths
	for i, p := range paths {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "</%s>", p)
		r := resources[p]
		r.mu.Lock()
		rt, observable := r.rt, r.observable
		r.mu.Unlock()
		if rt != "" {
			fmt.Fprintf(&sb, ";rt=%q", rt)
		}
		if observable {
			sb.WriteString(";obs")
		}
	}
	return []byte(sb.String())
}

// handle dispatches one request and returns the response (nil = silent).
func (s *Server) handle(from string, req *Message) *Message {
	var buf [64]byte
	path := req.appendPath(buf[:0])
	if string(path) == ".well-known/core" && req.Code == CodeGET {
		resp := &Message{Code: CodeContent, Payload: s.linkFormat()}
		resp.AddUintOption(OptContentFormat, FormatLinkFormat)
		return resp
	}
	r, ok := (*s.resources.Load())[string(path)]
	if !ok {
		return &Message{Code: CodeNotFound}
	}
	r.mu.Lock()
	fn, ok := r.handlers[req.Code]
	observable := r.observable
	r.mu.Unlock()
	if !ok {
		return &Message{Code: CodeMethodNotAllowed}
	}

	// Observe intent (RFC 7641). Deregistration (Observe=1) takes effect
	// regardless of the handler outcome; registration (Observe=0) waits
	// for the response — §4.1 only adds an observer when the GET
	// succeeds, so a failed read never leaves a dangling registration.
	register := false
	if req.Code == CodeGET && observable {
		if opt, has := req.Option(OptObserve); has {
			switch opt.Uint() {
			case 0:
				register = true
			case 1:
				r.removeObserver(from, req.Token)
			}
		}
	}

	resp := fn(from, req)
	if resp == nil {
		return nil
	}
	if register && resp.Code.IsSuccess() {
		if err := r.addObserver(from, req.Token); err != nil {
			// Admission reject: 5.03, with a retry hint when configured.
			reject := &Message{Code: CodeServiceUnavailable}
			if age := s.rejectMaxAge.Load(); age > 0 {
				reject.AddUintOption(OptMaxAge, uint32(age))
			}
			return reject
		}
		resp.AddUintOption(OptObserve, r.obsSeq.Add(1))
	}
	s.applyBlock2(req, resp)
	return resp
}

// applyBlock2 slices large response payloads per RFC 7959 (stateless
// server: the handler regenerates the full representation each time and
// the requested window is cut here).
func (s *Server) applyBlock2(req, resp *Message) {
	if !resp.Code.IsSuccess() || s.conn == nil {
		return
	}
	size := s.conn.cfg.BlockSize
	num := uint32(0)
	if opt, has := req.Option(OptBlock2); has {
		v := opt.Uint()
		num = v >> 4
		if reqSize := 1 << ((v & 0x7) + 4); reqSize < size {
			size = reqSize
		}
	} else if len(resp.Payload) <= size {
		return
	}
	szx := uint32(0)
	for 1<<(szx+5) <= size && szx < 6 {
		szx++
	}
	size = 1 << (szx + 4)
	off := int(num) * size
	if off > len(resp.Payload) || (off == len(resp.Payload) && num > 0) {
		resp.Code = CodeBadRequest
		resp.Payload = nil
		return
	}
	end := off + size
	more := uint32(0)
	if end < len(resp.Payload) {
		more = 0x8
	} else {
		end = len(resp.Payload)
	}
	resp.Payload = netbuf.CloneBytes(resp.Payload[off:end])
	resp.RemoveOption(OptBlock2)
	resp.AddUintOption(OptBlock2, num<<4|more|szx)
}

// TextResponse builds a 2.05 Content response with text payload.
func TextResponse(text string) *Message {
	m := &Message{Code: CodeContent, Payload: []byte(text)}
	m.AddUintOption(OptContentFormat, FormatText)
	return m
}

// ErrorResponse builds an error response with a diagnostic payload.
func ErrorResponse(code Code, diag string) *Message {
	return &Message{Code: code, Payload: []byte(diag)}
}

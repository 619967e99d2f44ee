package coap

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// HandlerFunc serves one request method on one resource. It returns the
// response message (Code, Payload, Options); the message layer fills in
// type, token, and IDs. Returning nil suppresses the response.
//
// req and everything it references (token, option values, payload) are
// borrowed for the call: the next request reuses their memory once the
// handler returns, so a handler that keeps any of it copies it first.
// The server copies the returned message before it adds Observe, Block2
// and the header fields, so a handler may return a shared message, as
// long as nothing modifies it while requests may be reading it.
type HandlerFunc func(from string, req *Message) *Message

// DefaultMaxObservers bounds observer state per resource when the server
// sets no limit — sized for constrained nodes. Gateways raise it for
// every resource via Server.SetObserverLimit.
const DefaultMaxObservers = 64

// defaultConfirmEvery makes every n-th notification confirmable so dead
// observers are eventually detected and dropped.
const defaultConfirmEvery = 8

// obsShards is the number of observer shards per resource. Sharding keys
// on the observer's address (addrHash), so lock contention and fan-out
// work spread evenly and every observer of one address is in one shard;
// it must be a power of two.
const obsShards = 16

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

// shardOf returns the shard of the observers at the address whose
// addrHash is h.
func (r *Resource) shardOf(h uint32) *obsShard { return &r.shards[h&(obsShards-1)] }

// Notify pushes a new representation to every observer. Without a notify
// pool (Server.StartNotifyPool) the fan-out runs on the caller, one
// notifyShard per shard in index order, so observers are sent to in a
// deterministic order, which the simulation relies on: by shard index,
// then in the shard's record order (registration order, except that a
// removed record's place is taken by its shard's last record). Each shard
// takes one consecutive message-ID block, so a round that nothing
// interleaves is one block. With a pool, each observer shard is
// dispatched to its own worker through a bounded queue; a full queue
// drops that shard's push (backpressure — the next notification carries
// the newer state).
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
	// A scratch per call, not per resource: an observer's transport may
	// notify again from inside Send.
	sc := notifyScratchPool.Get().(*notifyScratch)
	for si := range r.shards {
		r.notifyShard(si, seq, contentFormat, payload, sc)
	}
	notifyScratchPool.Put(sc)
}

// notifyScratch is what a fan-out reuses from shard to shard and round
// to round: the NON encoder and the copy of one shard's records.
type notifyScratch struct {
	enc  notifyEncoder
	recs []obsRec
}

var notifyScratchPool = sync.Pool{New: func() any { return new(notifyScratch) }}

// notifyShard fans one notification out to one observer shard — the one
// fan-out, run by the pool's workers and by inline Notify, zero
// allocations per observer at steady state (CI-gated). Under the shard
// lock it draws the MID block, stamps each record in order and copies the
// records into sc; it sends after unlocking, reading addresses from the
// arena as it was then.
func (r *Resource) notifyShard(si int, seq, contentFormat uint32, payload []byte, sc *notifyScratch) {
	sh := &r.shards[si]
	sh.mu.Lock()
	if len(sh.recs) == 0 {
		sh.mu.Unlock()
		return
	}
	mid := r.server.conn.allocMIDs(len(sh.recs))
	for i := range sh.recs {
		sh.recs[i].mid = mid + uint16(i)
		sh.recs[i].tl |= obsNotified
	}
	sc.recs = append(sc.recs[:0], sh.recs...)
	arena := sh.arena
	sh.mu.Unlock()
	r.fanOut(sc.recs, arena, mid, seq, contentFormat, payload, &sc.enc)
}

// fanOut sends one notification to recs, whose addresses are in arena,
// in order, with consecutive message IDs from mid; for a NON round the
// message body (options + payload) is encoded once and per-observer
// packets are assembled in enc's reused buffer.
func (r *Resource) fanOut(recs []obsRec, arena []byte, mid uint16, seq, contentFormat uint32, payload []byte, enc *notifyEncoder) {
	c := r.server.conn
	con := false
	if ce := r.server.confirmEveryVal(); ce > 0 {
		con = seq%ce == 0
	}
	if !con {
		enc.prepare(seq, contentFormat, payload)
	}
	for i := range recs {
		m := mid + uint16(i)
		addr := recs[i].addr(arena) // stays valid: arena bytes are never rewritten
		if con {
			o := recs[i] // the failure callback outlives the caller's slice
			msg := &Message{Type: Confirmable, Code: CodeContent, Token: o.token(), Payload: payload, MessageID: m}
			msg.AddUintOption(OptObserve, seq)
			msg.AddUintOption(OptContentFormat, contentFormat)
			c.send(addr, msg, func(error) {
				// Unreachable observer: drop the registration.
				r.removeObserver(addr, o.token())
			})
		} else {
			_ = c.tr.Send(addr, enc.packet(m, recs[i].token()))
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
	val := uintValue(&vb, v)
	b = append(b, byte(delta)<<4|byte(len(val)))
	return append(b, val...)
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
	var sc notifyScratch
	for job := range p.queues[i] {
		job.r.notifyShard(i, job.seq, job.cf, job.payload, &sc)
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
	h, key := addrHash(addr), obsKey(token)
	sh := r.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ri := sh.find(addr, h, &key)
	if ri >= 0 {
		return nil // re-registration with the same token refreshes in place
	}
	if len(sh.recs) == obsPosMask { // a full shard: no position left in the index
		return ErrTooManyObservers
	}
	if r.nobs.Add(1) > r.maxObservers() {
		r.nobs.Add(-1)
		return ErrTooManyObservers
	}
	sh.insert(addr, h, key, slot)
	return nil
}

func (r *Resource) removeObserver(addr string, token []byte) {
	h, key := addrHash(addr), obsKey(token)
	sh := r.shardOf(h)
	sh.mu.Lock()
	if slot, ri := sh.find(addr, h, &key); ri >= 0 {
		sh.remove(slot, ri)
		r.nobs.Add(-1)
	}
	sh.mu.Unlock()
}

// removeObserverByMID drops whatever observer at addr last received the
// notification with the given MID (RST handling). It walks addr's probe
// run in one shard of each resource and returns how many records it
// compared.
func (s *Server) removeObserverByMID(addr string, mid uint16) (compared int) {
	h := addrHash(addr)
	for _, r := range *s.resources.Load() {
		sh := r.shardOf(h)
		sh.mu.Lock()
		removed, c := sh.dropMID(addr, h, mid)
		r.nobs.Add(-int64(removed))
		sh.mu.Unlock()
		compared += c
	}
	return compared
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

// handle dispatches one request and returns its answer, built in sc's
// answer slot (nil = silent).
func (s *Server) handle(from string, req *Message, sc *reqScratch) *Message {
	var buf [64]byte
	path := req.appendPath(buf[:0])
	if string(path) == ".well-known/core" && req.Code == CodeGET {
		resp := sc.answer(&Message{Code: CodeContent, Payload: s.linkFormat()})
		resp.AddOption(OptContentFormat, uintValue(&sc.uints[0], FormatLinkFormat))
		return resp
	}
	r, ok := (*s.resources.Load())[string(path)]
	if !ok {
		return sc.answer(&Message{Code: CodeNotFound})
	}
	r.mu.Lock()
	fn, ok := r.handlers[req.Code]
	observable := r.observable
	r.mu.Unlock()
	if !ok {
		return sc.answer(&Message{Code: CodeMethodNotAllowed})
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

	handled := fn(from, req)
	if handled == nil {
		return nil
	}
	resp := sc.answer(handled)
	if register && resp.Code.IsSuccess() {
		if err := r.addObserver(from, req.Token); err != nil {
			// Admission reject: 5.03, with a retry hint when configured.
			resp = sc.answer(&Message{Code: CodeServiceUnavailable})
			if age := s.rejectMaxAge.Load(); age > 0 {
				resp.AddOption(OptMaxAge, uintValue(&sc.uints[0], uint32(age)))
			}
			return resp
		}
		resp.AddOption(OptObserve, uintValue(&sc.uints[0], r.obsSeq.Add(1)))
	}
	s.applyBlock2(req, resp, &sc.uints[1])
	return resp
}

// applyBlock2 slices large response payloads per RFC 7959 (stateless
// server: the handler regenerates the full representation each time and
// the requested window is cut here). The Block2 value goes into val.
func (s *Server) applyBlock2(req, resp *Message, val *[4]byte) {
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
	resp.Payload = resp.Payload[off:end]
	resp.RemoveOption(OptBlock2)
	resp.AddOption(OptBlock2, uintValue(val, num<<4|more|szx))
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

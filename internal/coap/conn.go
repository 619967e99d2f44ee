package coap

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/netbuf"
	"iiotds/internal/trace"
)

// Request/exchange errors.
var (
	ErrTimeout          = errors.New("coap: request timed out")
	ErrReset            = errors.New("coap: peer reset the exchange")
	ErrClosed           = errors.New("coap: connection closed")
	ErrTooManyObservers = errors.New("coap: observer table full")
)

// ackRandomFactor spreads the initial CON timeout over
// [AckTimeout, ackRandomFactor·AckTimeout] (RFC 7252 §4.8).
const ackRandomFactor = 1.5

// ConnConfig tunes the message layer (defaults follow RFC 7252 §4.8).
type ConnConfig struct {
	// AckTimeout is the initial CON retransmission timeout (default 2 s).
	AckTimeout time.Duration
	// MaxRetransmit is the CON retransmission budget (default 4).
	MaxRetransmit int
	// NonTimeout is how long a NON request waits for its response
	// (default 10 s).
	NonTimeout time.Duration
	// ExchangeLifetime bounds message-ID deduplication state
	// (default 60 s; the RFC's 247 s is long for simulations).
	ExchangeLifetime time.Duration
	// BlockSize is the block-wise transfer block size; must be a power
	// of two in [16,1024] (default 64, sized to constrained links).
	BlockSize int
	// Seed seeds the deterministic jitter source (default 1).
	Seed int64
}

func (c *ConnConfig) applyDefaults() {
	if c.AckTimeout == 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.MaxRetransmit == 0 {
		c.MaxRetransmit = 4
	}
	if c.NonTimeout == 0 {
		c.NonTimeout = 10 * time.Second
	}
	if c.ExchangeLifetime == 0 {
		c.ExchangeLifetime = 60 * time.Second
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ResponseFunc receives the outcome of a request: exactly one of resp and
// err is non-nil, except observe registrations where it fires once per
// notification.
type ResponseFunc func(resp *Message, err error)

// outCON tracks an in-flight confirmable message awaiting its ACK.
type outCON struct {
	data     []byte
	addr     string
	attempts int
	timeout  time.Duration
	cancel   clock.CancelFunc
	onFail   func(err error)
	journey  uint64
}

// reqState tracks a request awaiting its response (matched by token).
type reqState struct {
	fn      ResponseFunc
	observe bool
	timer   clock.CancelFunc
	// Block-wise assembly state.
	assembling []byte
	origReq    *Message
	addr       string
	journey    uint64
}

// midKey names a message-layer exchange: peer address and message ID.
type midKey struct {
	addr string
	mid  uint16
}

// tokenKey names a request awaiting its response, or an observer
// registration: peer address and token, the token held inline.
type tokenKey struct {
	addr string
	tok  [8]byte
	n    uint8
}

// newTokenKey builds the key of (addr, token). A token longer than 8
// bytes is never installed (Request and Unmarshal refuse it); its key
// keeps a length no installed key has, so it matches nothing.
func newTokenKey(addr string, token []byte) tokenKey {
	k := tokenKey{addr: addr, n: uint8(min(len(token), 9))}
	copy(k.tok[:], token)
	return k
}

func (k *tokenKey) token() []byte { return k.tok[:k.n:k.n] }

// Conn is a CoAP endpoint: client and server share one transport, as the
// protocol intends.
type Conn struct {
	tr    Transport
	sched clock.Scheduler
	cfg   ConnConfig

	// nextMID is the last message ID handed out (low 16 bits); a NON
	// response and a notification batch draw from it without c.mu.
	nextMID atomic.Uint32

	mu        sync.Mutex
	rng       *rand.Rand
	nextToken uint64
	pending   map[midKey]*outCON
	awaiting  map[tokenKey]*reqState
	dedup     dedupLog // answered CONs, for duplicate detection
	closed    bool

	server atomic.Pointer[Server]

	// rec, when set, receives message-layer trace events. Only install a
	// recorder on simulation-backed endpoints: the recorder is not
	// concurrency-safe, and only the sim mesh guarantees single-threaded
	// callbacks.
	rec       *trace.Recorder
	traceNode int32

	// js, when set, ties CoAP exchanges into the stack's packet
	// journeys: a request allocates (or inherits) a journey ID, and
	// every send — including message-layer retransmits — runs in that
	// journey's context so the mesh datagrams underneath carry it.
	// Leave nil on real-UDP endpoints (iiotgw), where there is no
	// simulated packet path to correlate with.
	js *netbuf.Journeys
}

// NewConn creates an endpoint over tr, driven by sched.
func NewConn(tr Transport, sched clock.Scheduler, cfg ConnConfig) *Conn {
	cfg.applyDefaults()
	c := &Conn{
		tr:       tr,
		sched:    sched,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		pending:  make(map[midKey]*outCON),
		awaiting: make(map[tokenKey]*reqState),
	}
	c.nextMID.Store(uint32(uint16(cfg.Seed)))
	tr.SetReceiver(c.onDatagram)
	return c
}

// SetTrace installs a flight recorder on this endpoint; node is the
// simulated node ID stamped on events. Use only on endpoints whose
// transport and scheduler run on a single simulation kernel.
func (c *Conn) SetTrace(rec *trace.Recorder, node int32) {
	c.rec = rec
	c.traceNode = node
}

// SetJourneys ties this endpoint into the stack's journey-ID context
// (typically medium.Buffers().Journeys()). Simulation-only, like
// SetTrace: the context is not concurrency-safe.
func (c *Conn) SetJourneys(js *netbuf.Journeys) { c.js = js }

// journeyCurrent returns the journey context's current ID (0 without a
// context).
func (c *Conn) journeyCurrent() uint64 {
	if c.js == nil {
		return 0
	}
	return c.js.Current()
}

// withJourney runs fn with jid installed as the current journey, so
// transport sends underneath inherit it.
func (c *Conn) withJourney(jid uint64, fn func()) {
	if c.js == nil {
		fn()
		return
	}
	prev := c.js.SetCurrent(jid)
	fn()
	c.js.SetCurrent(prev)
}

// Serve installs a server (resource tree) on this endpoint.
func (c *Conn) Serve(s *Server) {
	s.conn = c
	c.server.Store(s)
}

// LocalAddr returns the transport address.
func (c *Conn) LocalAddr() string { return c.tr.LocalAddr() }

// Close shuts the endpoint down: it marks it closed, so requests fail
// at once, drops the exchange state with Reset, failing outstanding
// requests with ErrClosed in Reset's order, and closes the transport.
func (c *Conn) Close() error {
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if closed {
		return nil
	}
	c.Reset()
	return c.tr.Close()
}

// DedupStats reports the CON duplicate-detection cache: entries is the
// number of (address, MID) pairs it answers for, bytes what its records
// and their address and answer bytes hold (its index not counted), and
// evicted how many pairs the 1 MiB bound dropped before their exchange
// lifetime since the endpoint was made or last Reset.
func (c *Conn) DedupStats() (entries, bytes int, evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dedup.live, c.dedup.held, c.dedup.evicted
}

// Exchanges reports the endpoint's in-flight exchange state: pending is
// the number of unacknowledged CONs still retransmitting, awaiting the
// number of requests waiting for a response. Diagnostics and leak tests.
func (c *Conn) Exchanges() (pending, awaiting int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending), len(c.awaiting)
}

// Reset models a device reboot: all volatile exchange state — pending
// CON retransmissions, requests awaiting responses, and the duplicate-
// detection cache — is dropped, and outstanding requests fail with
// ErrClosed. Unlike Close the endpoint stays usable and the transport
// stays open: the rebooted node comes back with fresh (well, Seed-reset
// is not modeled — MIDs/tokens keep counting, which RFC 7252 permits)
// exchange state. Failure callbacks fire in the byte order of
// "addr|hex(token)" so a simulated crash produces a deterministic event
// sequence. That is not field order — "12|…" sorts before "1|…" — and E14
// and the churn scenarios pin it.
func (c *Conn) Reset() {
	c.mu.Lock()
	for _, p := range c.pending {
		if p.cancel != nil {
			p.cancel()
		}
	}
	type failing struct {
		order string
		st    *reqState
	}
	fail := make([]failing, 0, len(c.awaiting))
	for k, st := range c.awaiting {
		order := hex.AppendEncode(append([]byte(k.addr), '|'), k.token())
		fail = append(fail, failing{string(order), st})
	}
	sort.Slice(fail, func(i, j int) bool { return fail[i].order < fail[j].order })
	for _, f := range fail {
		if f.st.timer != nil {
			f.st.timer()
		}
	}
	c.pending = make(map[midKey]*outCON)
	c.awaiting = make(map[tokenKey]*reqState)
	c.dedup = dedupLog{}
	c.mu.Unlock()
	for _, f := range fail {
		f.st.fn(nil, ErrClosed)
	}
}

func (c *Conn) newMID() uint16 { return uint16(c.nextMID.Add(1)) }

// allocMIDs reserves a block of n consecutive message IDs in one atomic
// add and returns the first, so a notification fan-out pays one shared
// write per batch instead of one per observer. The ID sequence is
// exactly what n calls of newMID would have produced. MIDs wrap at 2^16;
// batches larger than that alias within themselves, which RFC 7252
// tolerates for NONs (retransmission state is never keyed on them here).
func (c *Conn) allocMIDs(n int) uint16 {
	return uint16(c.nextMID.Add(uint32(n)) - uint32(n) + 1)
}

func (c *Conn) newToken() []byte {
	c.nextToken++
	tok := make([]byte, 8)
	binary.BigEndian.PutUint64(tok, c.nextToken)
	return tok
}

// Request sends req to addr and invokes fn with the response. If req.Type
// is Confirmable, the message layer retransmits with exponential backoff.
// Responses carrying Block2 with the "more" flag are fetched and
// reassembled transparently. If the request carries Observe=0, fn fires
// once per notification until CancelObserve.
func (c *Conn) Request(addr string, req *Message, fn ResponseFunc) {
	if fn == nil {
		fn = func(*Message, error) {} // fire-and-forget request
	}
	if len(req.Token) > 8 {
		fn(nil, ErrBadToken)
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		fn(nil, ErrClosed)
		return
	}
	if req.Token == nil {
		req.Token = c.newToken()
	}
	req.MessageID = c.newMID()
	// The exchange's journey: continue the packet being processed (a
	// request made from a receive handler), or start a fresh one.
	jid := c.journeyCurrent()
	if jid == 0 && c.js != nil {
		jid = c.js.New()
	}
	c.rec.Emit(c.traceNode, trace.CoAPRequest, int64(req.MessageID), int64(req.Code), 0, jid)
	obsOpt, isObs := req.Option(OptObserve)
	observe := isObs && obsOpt.Uint() == 0
	st := &reqState{fn: fn, observe: observe, origReq: req, addr: addr, journey: jid}
	tk := newTokenKey(addr, req.Token)
	c.awaiting[tk] = st
	if req.Type == NonConfirmable {
		st.timer = c.sched.Schedule(c.cfg.NonTimeout, func() {
			c.failRequest(tk, ErrTimeout)
		})
	}
	c.mu.Unlock()
	c.withJourney(jid, func() {
		c.send(addr, req, func(err error) { c.failRequest(tk, err) })
	})
}

// Get is a convenience confirmable GET.
func (c *Conn) Get(addr, path string, fn ResponseFunc) {
	m := &Message{Type: Confirmable, Code: CodeGET}
	m.SetPath(path)
	c.Request(addr, m, fn)
}

// Put is a convenience confirmable PUT.
func (c *Conn) Put(addr, path string, contentFormat uint32, payload []byte, fn ResponseFunc) {
	m := &Message{Type: Confirmable, Code: CodePUT, Payload: payload}
	m.SetPath(path)
	m.AddUintOption(OptContentFormat, contentFormat)
	c.Request(addr, m, fn)
}

// Post is a convenience confirmable POST.
func (c *Conn) Post(addr, path string, contentFormat uint32, payload []byte, fn ResponseFunc) {
	m := &Message{Type: Confirmable, Code: CodePOST, Payload: payload}
	m.SetPath(path)
	m.AddUintOption(OptContentFormat, contentFormat)
	c.Request(addr, m, fn)
}

// Observe registers for notifications of path at addr. The returned token
// identifies the registration for CancelObserve.
func (c *Conn) Observe(addr, path string, fn ResponseFunc) []byte {
	m := &Message{Type: Confirmable, Code: CodeGET}
	m.SetPath(path)
	m.AddUintOption(OptObserve, 0)
	c.mu.Lock()
	tok := c.newToken()
	c.mu.Unlock()
	m.Token = tok
	c.Request(addr, m, fn)
	return tok
}

// CancelObserve deregisters a previous Observe (RFC 7641 §3.6, with
// Observe=1).
func (c *Conn) CancelObserve(addr string, token []byte, path string) {
	c.mu.Lock()
	delete(c.awaiting, newTokenKey(addr, token))
	c.mu.Unlock()
	m := &Message{Type: NonConfirmable, Code: CodeGET, Token: token, MessageID: c.newMID()}
	m.SetPath(path)
	m.AddUintOption(OptObserve, 1)
	data, err := m.Marshal()
	if err == nil {
		_ = c.tr.Send(addr, data)
	}
}

// failRequest finishes a pending request with an error.
func (c *Conn) failRequest(tk tokenKey, err error) {
	c.mu.Lock()
	st, ok := c.awaiting[tk]
	if ok {
		delete(c.awaiting, tk)
		if st.timer != nil {
			st.timer()
		}
	}
	c.mu.Unlock()
	if ok {
		st.fn(nil, err)
	}
}

// send transmits m to addr; for CONs it installs the retransmission state.
// onFail fires if the message layer gives up.
func (c *Conn) send(addr string, m *Message, onFail func(err error)) {
	data, err := m.Marshal()
	if err != nil {
		if onFail != nil {
			onFail(err)
		}
		return
	}
	if m.Type == Confirmable {
		c.mu.Lock()
		timeout := time.Duration(float64(c.cfg.AckTimeout) * (1 + (ackRandomFactor-1)*c.rng.Float64()))
		p := &outCON{data: data, addr: addr, timeout: timeout, onFail: onFail, journey: c.journeyCurrent()}
		k := midKey{addr, m.MessageID}
		c.pending[k] = p
		c.armRetransmit(k, p)
		c.mu.Unlock()
	}
	_ = c.tr.Send(addr, data)
}

// armRetransmit must be called with c.mu held.
func (c *Conn) armRetransmit(k midKey, p *outCON) {
	p.cancel = c.sched.Schedule(p.timeout, func() {
		c.mu.Lock()
		cur, ok := c.pending[k]
		if !ok || cur != p || c.closed {
			c.mu.Unlock()
			return
		}
		p.attempts++
		if p.attempts > c.cfg.MaxRetransmit {
			delete(c.pending, k)
			onFail := p.onFail
			c.mu.Unlock()
			c.rec.Emit(c.traceNode, trace.CoAPTimeout, 0, int64(p.attempts), 0, p.journey)
			if onFail != nil {
				onFail(ErrTimeout)
			}
			return
		}
		p.timeout *= 2
		c.armRetransmit(k, p)
		data, addr := p.data, p.addr
		c.mu.Unlock()
		c.rec.Emit(c.traceNode, trace.CoAPRetransmit, 0, int64(p.attempts), 0, p.journey)
		// The retransmitted copy continues the original journey.
		c.withJourney(p.journey, func() {
			_ = c.tr.Send(addr, data)
		})
	})
}

// ackReceived clears retransmission state for (addr, mid).
func (c *Conn) ackReceived(addr string, mid uint16) {
	c.mu.Lock()
	k := midKey{addr, mid}
	if p, ok := c.pending[k]; ok {
		if p.cancel != nil {
			p.cancel()
		}
		delete(c.pending, k)
	}
	c.mu.Unlock()
}

// reqScratch is what one inbound datagram borrows from reqPool while it
// is handled: the decoded message, its options and its one copy of the
// datagram, the answer the server builds, and the answer's encoding.
// Nothing in it outlives the datagram's callback.
type reqScratch struct {
	msg  Message
	opts [16]Option
	data []byte // the datagram's copy; msg's fields are sub-slices of it

	resp     Message
	respOpts [8]Option
	uints    [2][4]byte // the values of the options the server adds to resp
	out      []byte     // a NON answer's encoding
}

var reqPool = sync.Pool{New: func() any { return new(reqScratch) }}

// decode decodes data into sc.msg, copying it into sc.data.
func (sc *reqScratch) decode(data []byte) error {
	var err error
	sc.data, sc.msg.Options, err = sc.msg.unmarshalInto(data, sc.data, sc.opts[:0])
	return err
}

// answer copies m, which may be shared, into sc.resp and returns the copy
// for the server and the message layer to stamp.
func (sc *reqScratch) answer(m *Message) *Message {
	sc.resp = *m
	sc.resp.Options = append(sc.respOpts[:0], m.Options...)
	return &sc.resp
}

// release drops the answer's references to bytes the handler owns and
// hands sc back to reqPool.
func (sc *reqScratch) release() {
	sc.resp = Message{}
	reqPool.Put(sc)
}

// isResponse reports whether a message of type t and code code goes to
// handleResponse: an ACK that carries a code, or a CON or NON response.
func isResponse(t Type, code Code) bool {
	switch t {
	case Acknowledgement:
		return code != CodeEmpty
	case Reset:
		return false
	default:
		return code.IsResponse()
	}
}

// onDatagram is the transport receive callback; data is borrowed for the
// call. A response is decoded onto the heap, because its ResponseFunc
// may keep it. Anything else is decoded into a scratch borrowed from
// reqPool and handed back when it has been handled, so a request and
// everything it references is valid only while its handler runs.
func (c *Conn) onDatagram(from string, data []byte) {
	if len(data) >= 2 && isResponse(Type(data[0]>>4&0x3), Code(data[1])) {
		m, err := Unmarshal(data)
		if err != nil {
			return // RFC: silently ignore garbage
		}
		if m.Type == Acknowledgement {
			c.ackReceived(from, m.MessageID)
		} else if m.Type == Confirmable {
			c.sendEmpty(Acknowledgement, from, m.MessageID)
		}
		c.handleResponse(from, m)
		return
	}
	sc := reqPool.Get().(*reqScratch)
	defer sc.release()
	if sc.decode(data) != nil {
		return
	}
	m := &sc.msg
	switch {
	case m.Type == Acknowledgement:
		c.ackReceived(from, m.MessageID)
	case m.Type == Reset:
		c.ackReceived(from, m.MessageID)
		c.handleReset(from, m)
	case m.Code.IsRequest():
		c.handleRequest(from, sc)
	case m.Type == Confirmable:
		// CON ping: answer with RST per RFC 7252 §4.3.
		c.sendEmpty(Reset, from, m.MessageID)
	}
}

func (c *Conn) sendEmpty(t Type, addr string, mid uint16) {
	m := &Message{Type: t, Code: CodeEmpty, MessageID: mid}
	data, err := m.Marshal()
	if err == nil {
		_ = c.tr.Send(addr, data)
	}
}

func (c *Conn) handleReset(from string, m *Message) {
	// A RST aborts whatever exchange used this MID; observers are
	// removed by the server layer on notification RSTs.
	if s := c.server.Load(); s != nil {
		s.removeObserverByMID(from, m.MessageID)
	}
}

// handleResponse routes a response to its waiting request by token.
func (c *Conn) handleResponse(from string, m *Message) {
	tk := newTokenKey(from, m.Token)
	c.mu.Lock()
	st, ok := c.awaiting[tk]
	if !ok {
		c.mu.Unlock()
		// Unsolicited response (e.g., notification after cancel): RST
		// non-ACK messages so the peer stops.
		if m.Type == NonConfirmable || m.Type == Confirmable {
			c.sendEmpty(Reset, from, m.MessageID)
		}
		return
	}
	// Block-wise: accumulate and continue fetching.
	if blk, has := m.Option(OptBlock2); has && m.Code.IsSuccess() {
		v := blk.Uint()
		more := v&0x8 != 0
		st.assembling = append(st.assembling, m.Payload...)
		if more {
			num := v >> 4
			szx := v & 0x7
			next := *st.origReq
			next.Token = m.Token
			next.MessageID = c.newMID()
			next.RemoveOption(OptBlock2)
			next.AddUintOption(OptBlock2, (num+1)<<4|szx)
			next.Payload = nil
			addr := st.addr
			jid := st.journey
			c.mu.Unlock()
			c.withJourney(jid, func() {
				c.send(addr, &next, func(err error) { c.failRequest(tk, err) })
			})
			return
		}
		m.Payload = st.assembling
		st.assembling = nil
	}
	if !st.observe {
		delete(c.awaiting, tk)
		if st.timer != nil {
			st.timer()
		}
	}
	fn := st.fn
	jid := st.journey
	c.mu.Unlock()
	c.rec.Emit(c.traceNode, trace.CoAPResponse, int64(m.MessageID), int64(m.Code), 0, jid)
	fn(m, nil)
}

// handleRequest dispatches the request in sc to the server and sends
// the answer it builds there. Only CONs are deduplicated (RFC 7252
// §4.5): caching NON requests too would retain a response per message
// for no replay benefit — and let a stale NON entry alias a later CON
// that reuses the MID. So only a CON expires, reads and fills the dedup
// log, and a NON takes no Conn-wide lock.
func (c *Conn) handleRequest(from string, sc *reqScratch) {
	m := &sc.msg
	con := m.Type == Confirmable
	var now time.Duration
	if con {
		now = c.sched.Now()
		c.mu.Lock()
		c.dedup.expire(now, c.cfg.ExchangeLifetime)
		replay := c.dedup.lookup(from, m.MessageID)
		c.mu.Unlock()
		if replay != nil {
			// Replay the cached response for a repeated CON.
			_ = c.tr.Send(from, replay)
			return
		}
	}

	var resp *Message
	if server := c.server.Load(); server == nil {
		resp = sc.answer(&Message{Code: CodeNotImplemented})
	} else {
		resp = server.handle(from, m, sc)
	}
	if resp == nil {
		// Server chose not to respond (e.g., observe dereg via RST).
		if con {
			c.sendEmpty(Acknowledgement, from, m.MessageID)
		}
		return
	}
	resp.Token = m.Token
	var data []byte
	if con {
		resp.Type = Acknowledgement
		resp.MessageID = m.MessageID
		// Encoded once, into the dedup log, and sent from there.
		var err error
		c.mu.Lock()
		data, err = c.dedup.add(from, m.MessageID, now, resp)
		c.mu.Unlock()
		if err != nil {
			return
		}
	} else {
		resp.Type = NonConfirmable
		resp.MessageID = c.newMID()
		sc.out = resp.appendMarshal(sc.out[:0])
		data = sc.out
	}
	_ = c.tr.Send(from, data)
}

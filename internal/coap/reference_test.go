package coap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// This file keeps the observe registry's reference model: per resource,
// a plain map from (address, token) to the MID of the last notification
// that observer was sent, and per shard a plain list of keys in send
// order, with register, deregister, RST, cap and CON-timeout rules
// written out once, sequentially, without pools, atomics or an index.
// TestObserveReferenceParity drives it beside a real Server over drawn op
// sequences.

// refNone marks an observer that has been sent no notification.
const refNone = -1

// refCON is a confirmable notification neither ACKed, RST nor timed out.
type refCON struct {
	res int
	k   tokenKey
	mid uint16
}

type refRegistry struct {
	limit   int
	obs     []map[tokenKey]int      // per resource: key -> last notification MID or refNone
	order   [][obsShards][]tokenKey // per resource and shard: keys in send order
	pending []refCON
	nextMID uint16 // last MID the server's Conn handed out
}

func newRefRegistry(resources, limit int, seed int64) *refRegistry {
	m := &refRegistry{limit: limit, obs: make([]map[tokenKey]int, resources),
		order: make([][obsShards][]tokenKey, resources), nextMID: uint16(seed)}
	for i := range m.obs {
		m.obs[i] = map[tokenKey]int{}
	}
	return m
}

// shard returns resource res's key list for addr's shard: its observers
// in registration order, but for each removal, which moves the list's
// last key into the removed one's place.
func (m *refRegistry) shard(res int, addr string) *[]tokenKey {
	return &m.order[res][addrHash(addr)&(obsShards-1)]
}

// drop deregisters k from resource res, if it is registered.
func (m *refRegistry) drop(res int, k tokenKey) {
	if _, ok := m.obs[res][k]; !ok {
		return
	}
	delete(m.obs[res], k)
	keys := m.shard(res, k.addr)
	i, last := slices.Index(*keys, k), len(*keys)-1
	(*keys)[i] = (*keys)[last]
	*keys = (*keys)[:last]
}

// request answers one GET on resource res, observe is the Observe
// option (0 register, 1 deregister), fail makes the handler answer 5.00.
// It returns the expected response code and whether it carries Observe.
// Every request is NON, so its response takes one MID.
func (m *refRegistry) request(res int, k tokenKey, observe uint32, fail bool) (Code, bool) {
	m.nextMID++
	if observe == 1 {
		m.drop(res, k) // deregistration holds whatever the handler answers
	}
	if fail {
		return CodeInternalServerError, false
	}
	if observe != 0 {
		return CodeContent, false
	}
	if _, ok := m.obs[res][k]; !ok {
		if len(m.obs[res]) >= m.limit {
			return CodeServiceUnavailable, false
		}
		m.obs[res][k] = refNone
		*m.shard(res, k.addr) = append(*m.shard(res, k.addr), k)
	}
	return CodeContent, true
}

// notify sends one notification round on resource res: every observer,
// shard by shard in index order and in each shard's list order, one
// consecutive MID each.
func (m *refRegistry) notify(res int, con bool) []refCON {
	var sent []refCON
	for _, keys := range m.order[res] {
		for _, k := range keys {
			m.nextMID++
			m.obs[res][k] = int(m.nextMID)
			sent = append(sent, refCON{res, k, m.nextMID})
		}
	}
	if con {
		m.pending = append(m.pending, sent...)
	}
	return sent
}

// ack clears the CON exchange (addr, mid), as an ACK or a RST does.
func (m *refRegistry) ack(addr string, mid uint16) {
	m.pending = slices.DeleteFunc(m.pending, func(p refCON) bool { return p.k.addr == addr && p.mid == mid })
}

// rst is a Reset from addr: it ends the exchange and drops every
// observer at addr, on any resource, whose last notification had mid.
func (m *refRegistry) rst(addr string, mid uint16) {
	m.ack(addr, mid)
	for res, obs := range m.obs {
		for _, k := range slices.Clone(*m.shard(res, addr)) {
			if k.addr == addr && obs[k] == int(mid) {
				m.drop(res, k)
			}
		}
	}
}

// timeout lets every pending CON run out of retransmissions: each drops
// its registration key, whoever holds it now. The exchanges fail in the
// order of their Conn-drawn timeouts, which is the order of their last
// retransmissions: last maps each pending (address, MID) to its last
// retransmission's place on the wire.
func (m *refRegistry) timeout(last map[midKey]int) {
	slices.SortFunc(m.pending, func(a, b refCON) int {
		return last[midKey{a.k.addr, a.mid}] - last[midKey{b.k.addr, b.mid}]
	})
	for _, p := range m.pending {
		m.drop(p.res, p.k)
	}
	m.pending = nil
}

// wireTransport records every outbound datagram and hands the test the
// Conn's receive callback.
type wireTransport struct {
	recv func(from string, data []byte)
	log  []sentDatagram
}

func (w *wireTransport) Send(addr string, data []byte) error {
	w.log = append(w.log, sentDatagram{addr, append([]byte(nil), data...)})
	return nil
}
func (w *wireTransport) SetReceiver(fn func(from string, data []byte)) { w.recv = fn }
func (w *wireTransport) LocalAddr() string                             { return "srv" }
func (w *wireTransport) Close() error                                  { return nil }

// take returns the datagrams sent since the last take, parsed.
func (w *wireTransport) take(t *testing.T) ([]string, []*Message) {
	t.Helper()
	addrs := make([]string, len(w.log))
	msgs := make([]*Message, len(w.log))
	for i, d := range w.log {
		m, err := Unmarshal(d.data)
		if err != nil {
			t.Fatalf("datagram to %s: %v", d.addr, err)
		}
		addrs[i], msgs[i] = d.addr, m
	}
	w.log = w.log[:0]
	return addrs, msgs
}

// registryOf reads the server's registry: every observer of r with the
// MID of the last notification it was sent, refNone for none. Each shard
// is checked against itself (tableOf) and must hold only addresses that
// hash to it.
func registryOf(t *testing.T, r *Resource) map[tokenKey]int {
	t.Helper()
	out := map[tokenKey]int{}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for k, last := range tableOf(t, sh) {
			if r.shardOf(addrHash(k.addr)) != sh {
				t.Errorf("shard %d holds %q, which hashes elsewhere", i, k.addr)
			}
			out[k] = last
		}
		sh.mu.Unlock()
	}
	return out
}

// shardOrder reads the keys of shard si of r in record order.
func shardOrder(r *Resource, si int) []tokenKey {
	sh := &r.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []tokenKey
	for i := range sh.recs {
		out = append(out, newTokenKey(sh.recs[i].addr(sh.arena), sh.recs[i].token()))
	}
	return out
}

// tableOf reads one shard's table, held locked, as registryOf does, after
// checking it: every record is found through the index by its own
// address and token, the index points at nothing else, the count is the
// record count, and the arena's dead bytes are what the records leave.
func tableOf(t *testing.T, sh *obsShard) map[tokenKey]int {
	t.Helper()
	slots := 0
	for _, v := range sh.index {
		if v != 0 {
			slots++
		}
	}
	if slots != len(sh.recs) || int(sh.n.Load()) != len(sh.recs) {
		t.Fatalf("%d index slots and count %d for %d records", slots, sh.n.Load(), len(sh.recs))
	}
	out := map[tokenKey]int{}
	used := 0
	for ri := range sh.recs {
		o := &sh.recs[ri]
		addr := o.addr(sh.arena)
		if _, found := sh.find(addr, addrHash(addr), o); found != int32(ri) {
			t.Fatalf("record %d (%q/%x) is found at %d", ri, addr, o.token(), found)
		}
		from, _, end := o.span(sh.arena)
		used += end - from
		k := newTokenKey(addr, o.token())
		out[k] = refNone
		if o.tl&obsNotified != 0 {
			out[k] = int(o.mid)
		}
	}
	if used+sh.dead != len(sh.arena) {
		t.Fatalf("records use %d arena bytes and %d are dead, the arena holds %d", used, sh.dead, len(sh.arena))
	}
	return out
}

// TestObserveReferenceParity draws op sequences — register, re-register
// on the same token, failed GET, Observe=1 deregistration, NON and CON
// notification rounds, ACKs, an RST of an observer's last notification
// MID, an RST of a MID never sent to that address, the cap boundary and
// CON-notification timeout — and after every step compares the server's
// registry, each shard's record order, its observer counts, its pending
// CON exchanges and everything it sent, datagram by datagram in send
// order, with the reference model's.
func TestObserveReferenceParity(t *testing.T) {
	const resources, limit, steps = 3, 5, 300
	addrs := []string{"c1", "c12", "c2", "c3", "d", strings.Repeat("long.", 60)} // 300 B: a length-prefixed address
	tokens := [][]byte{nil, {1}, {1, 2}, {2}, {0xFF, 0, 1, 2, 3, 4, 5, 6}}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New(seed)
		tr := &wireTransport{}
		// Even seeds start the MID counter short of its wrap, so MID 0
		// is handed out mid-run.
		connSeed := seed
		if seed%2 == 0 {
			connSeed = 1<<16 - 20*seed
		}
		conn := NewConn(tr, clock.Kernel{K: k}, ConnConfig{Seed: connSeed})
		srv := NewServer()
		srv.SetObserverLimit(limit)
		srv.SetConfirmEvery(-1)
		fail := make([]bool, resources)
		res := make([]*Resource, resources)
		for i := range res {
			res[i] = srv.Resource(fmt.Sprintf("r%d", i)).Observable().Get(func(string, *Message) *Message {
				if fail[i] {
					return ErrorResponse(CodeInternalServerError, "read failed")
				}
				return TextResponse("v")
			})
		}
		conn.Serve(srv)
		ref := newRefRegistry(resources, limit, connSeed)
		sentTo := map[string][]uint16{} // every MID the server sent to an address, in send order

		drawKey := func() tokenKey {
			return newTokenKey(addrs[rng.Intn(len(addrs))], tokens[rng.Intn(len(tokens))])
		}
		// someObserver draws a registered (resource, key); with notified
		// set, only among observers that have been sent a notification.
		someObserver := func(notified bool) (int, tokenKey, bool) {
			var cand []refCON
			for ri, obs := range ref.obs {
				for k, mid := range obs {
					if !notified || mid != refNone {
						cand = append(cand, refCON{ri, k, uint16(mid)})
					}
				}
			}
			if len(cand) == 0 {
				return 0, tokenKey{}, false
			}
			sort.Slice(cand, func(i, j int) bool { // map order must not reach the RNG
				a, b := cand[i], cand[j]
				if a.res != b.res {
					return a.res < b.res
				}
				if a.k.addr != b.k.addr {
					return a.k.addr < b.k.addr
				}
				return bytes.Compare(a.k.token(), b.k.token()) < 0
			})
			c := cand[rng.Intn(len(cand))]
			return c.res, c.k, true
		}
		// get sends one NON GET and checks the single response.
		get := func(step int, ri int, key tokenKey, observe uint32, failing bool) {
			t.Helper()
			fail[ri] = failing
			data, err := registerMsg(key.token(), uint16(rng.Intn(1<<16)), fmt.Sprintf("r%d", ri), observe).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			tr.recv(key.addr, data)
			fail[ri] = false
			wantCode, wantObs := ref.request(ri, key, observe, failing)
			to, msgs := tr.take(t)
			if len(msgs) != 1 || to[0] != key.addr {
				t.Fatalf("seed %d step %d: GET r%d from %s sent %d datagrams, want 1 response", seed, step, ri, key.addr, len(msgs))
			}
			m := msgs[0]
			_, hasObs := m.Option(OptObserve)
			if m.Code != wantCode || hasObs != wantObs || m.MessageID != ref.nextMID || !bytes.Equal(m.Token, key.token()) {
				t.Fatalf("seed %d step %d: GET r%d observe=%d from %s answered %v observe=%v mid=%d, want %v observe=%v mid=%d",
					seed, step, ri, observe, key.addr, m.Code, hasObs, m.MessageID, wantCode, wantObs, ref.nextMID)
			}
			sentTo[key.addr] = append(sentTo[key.addr], m.MessageID)
		}
		// notify runs one round and checks every datagram against the
		// model's (address, token, MID) sequence.
		notify := func(step int, ri int, con bool) {
			t.Helper()
			if con {
				srv.SetConfirmEvery(1)
			}
			res[ri].Notify(FormatText, []byte("n"))
			srv.SetConfirmEvery(-1)
			want := ref.notify(ri, con)
			to, msgs := tr.take(t)
			if len(msgs) != len(want) {
				t.Fatalf("seed %d step %d: notify r%d sent %d datagrams, want %d", seed, step, ri, len(msgs), len(want))
			}
			typ := NonConfirmable
			if con {
				typ = Confirmable
			}
			for i, w := range want {
				m := msgs[i]
				if to[i] != w.k.addr || !bytes.Equal(m.Token, w.k.token()) || m.MessageID != w.mid || m.Type != typ || m.Code != CodeContent {
					t.Fatalf("seed %d step %d: notification %d went to %s token %x mid %d type %v, want %s token %x mid %d type %v",
						seed, step, i, to[i], m.Token, m.MessageID, m.Type, w.k.addr, w.k.token(), w.mid, typ)
				}
				sentTo[w.k.addr] = append(sentTo[w.k.addr], w.mid)
			}
		}
		send := func(from string, typ Type, mid uint16) {
			data, err := (&Message{Type: typ, Code: CodeEmpty, MessageID: mid}).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			tr.recv(from, data)
		}
		check := func(step int, what string) {
			t.Helper()
			for ri, r := range res {
				got, want := registryOf(t, r), ref.obs[ri]
				if len(got) != len(want) || r.ObserverCount() != len(want) {
					t.Fatalf("seed %d step %d (%s): r%d holds %d observers (count %d), reference %d", seed, step, what, ri, len(got), r.ObserverCount(), len(want))
				}
				for k, mid := range want {
					last, ok := got[k]
					if !ok {
						t.Fatalf("seed %d step %d (%s): r%d lost observer %s/%x", seed, step, what, ri, k.addr, k.token())
					}
					if last != mid {
						t.Fatalf("seed %d step %d (%s): r%d observer %s/%x last MID %d, reference %d", seed, step, what, ri, k.addr, k.token(), last, mid)
					}
				}
				for si, want := range ref.order[ri] {
					if got := shardOrder(r, si); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d (%s): r%d shard %d holds %v, reference %v", seed, step, what, ri, si, got, want)
					}
				}
			}
			if pending, _ := conn.Exchanges(); pending != len(ref.pending) {
				t.Fatalf("seed %d step %d (%s): %d CON notifications pending, reference %d", seed, step, what, pending, len(ref.pending))
			}
		}

		for step := 0; step < steps; step++ {
			var what string
			switch op := rng.Intn(20); {
			case op < 4:
				what = "register"
				get(step, rng.Intn(resources), drawKey(), 0, false)
			case op < 6:
				what = "re-register"
				if ri, key, ok := someObserver(false); ok {
					get(step, ri, key, 0, false)
				}
			case op < 7:
				what = "failed GET"
				key := drawKey()
				ri := rng.Intn(resources)
				if rng.Intn(2) == 0 {
					if r, k, ok := someObserver(false); ok {
						ri, key = r, k
					}
				}
				get(step, ri, key, 0, true)
			case op < 9:
				what = "deregister"
				key := drawKey()
				ri := rng.Intn(resources)
				if rng.Intn(4) != 0 {
					if r, k, ok := someObserver(false); ok {
						ri, key = r, k
					}
				}
				get(step, ri, key, 1, rng.Intn(4) == 0)
			case op < 12:
				what = "notify NON"
				notify(step, rng.Intn(resources), false)
			case op < 14:
				what = "notify CON"
				notify(step, rng.Intn(resources), true)
				for _, p := range append([]refCON(nil), ref.pending...) {
					if rng.Intn(2) == 0 {
						send(p.k.addr, Acknowledgement, p.mid)
						ref.ack(p.k.addr, p.mid)
					}
				}
				if _, msgs := tr.take(t); len(msgs) != 0 {
					t.Fatalf("seed %d step %d: an ACK drew %d datagrams", seed, step, len(msgs))
				}
			case op < 16:
				what = "RST last MID"
				if ri, key, ok := someObserver(true); ok {
					mid := uint16(ref.obs[ri][key])
					send(key.addr, Reset, mid)
					ref.rst(key.addr, mid)
				}
			case op < 17:
				what = "RST stray MID"
				addr := addrs[rng.Intn(len(addrs))]
				// Half the draws take MID 0 when addr was never sent it: a
				// never-notified observer must not match it.
				mid, skipZero := uint16(0), rng.Intn(2) == 0
				for skipZero || slices.Contains(sentTo[addr], mid) {
					skipZero = false
					mid = uint16(rng.Intn(1 << 16))
					if other := sentTo[addrs[rng.Intn(len(addrs))]]; len(other) > 0 && rng.Intn(2) == 0 {
						mid = other[rng.Intn(len(other))] // a MID another address was sent
					}
				}
				send(addr, Reset, mid)
				ref.rst(addr, mid)
			case op < 18:
				what = "cap boundary"
				ri := rng.Intn(resources)
				// Fill r to the cap with new keys, then one more: 5.03.
				for filled := len(ref.obs[ri]) >= limit; ; {
					key := drawKey()
					if _, ok := ref.obs[ri][key]; ok {
						continue
					}
					get(step, ri, key, 0, false)
					if filled {
						break
					}
					filled = len(ref.obs[ri]) >= limit
				}
			default:
				what = "CON timeout"
				k.RunFor(10 * time.Minute)
				to, msgs := tr.take(t)
				last := map[midKey]int{}
				for i, m := range msgs {
					retransmit := func(p refCON) bool { return p.k.addr == to[i] && p.mid == m.MessageID }
					if m.Type != Confirmable || !slices.ContainsFunc(ref.pending, retransmit) {
						t.Fatalf("seed %d step %d: %v mid %d to %s while awaiting timeouts", seed, step, m.Type, m.MessageID, to[i])
					}
					last[midKey{to[i], m.MessageID}] = i
				}
				if len(last) != len(ref.pending) {
					t.Fatalf("seed %d step %d: %d of %d pending CONs retransmitted", seed, step, len(last), len(ref.pending))
				}
				ref.timeout(last)
			}
			if _, msgs := tr.take(t); len(msgs) != 0 {
				t.Fatalf("seed %d step %d (%s): %d unexpected datagrams", seed, step, what, len(msgs))
			}
			check(step, what)
		}
		_ = conn.Close()
	}
}

// refDedup is the CON duplicate-detection cache as a map and a FIFO,
// written out sequentially: the map holds each (address, MID)'s arrival
// time and answer bytes, the FIFO every insertion in order, and expiry
// pops the FIFO's front while it is stale (its key was answered again
// since) or older than the lifetime. TestDedupReferenceParity drives it
// beside a real Conn over drawn arrival sequences.
type refDedup struct {
	lifetime time.Duration
	m        map[midKey]refAnswer
	q        []refArrival
}

type refAnswer struct {
	at   time.Duration
	resp []byte
}

type refArrival struct {
	k  midKey
	at time.Duration
}

func newRefDedup(lifetime time.Duration) *refDedup {
	return &refDedup{lifetime: lifetime, m: map[midKey]refAnswer{}}
}

// lookup expires what is due at now and returns the cached answer for k.
func (d *refDedup) lookup(k midKey, now time.Duration) ([]byte, bool) {
	for len(d.q) > 0 {
		f := d.q[0]
		if e, ok := d.m[f.k]; ok && e.at == f.at {
			if now-e.at <= d.lifetime {
				break
			}
			delete(d.m, f.k)
		}
		d.q = d.q[1:]
	}
	e, ok := d.m[k]
	return e.resp, ok
}

// insert caches resp as the answer to k, arrived at at.
func (d *refDedup) insert(k midKey, at time.Duration, resp []byte) {
	d.m[k] = refAnswer{at, resp}
	d.q = append(d.q, refArrival{k, at})
}

func (d *refDedup) reset() {
	d.m = map[midKey]refAnswer{}
	d.q = nil
}

// dedupLen reads how many (address, MID) pairs c's cache answers for.
func dedupLen(c *Conn) int {
	n, _, _ := c.DedupStats()
	return n
}

// dedupAddr47 is a 47-byte peer address, the length of the longest
// bracketed IPv6 literal with a zone and port the tests use.
const dedupAddr47 = "[2001:db8:85a3:8d3:1319:8a2e:370:7348%eth]:5683"

// TestDedupReferenceParity draws CON arrival sequences — a few
// addresses (one of 47 bytes), repeated and re-answered (address, MID)
// pairs, answers from 4 B to past 1 100 B, an answer re-entered by its
// own handler (so one key is answered twice, out of arrival order),
// requests the handler leaves unanswered, time steps landing exactly on
// ExchangeLifetime past an arrival and 1 ns beyond, Reset and Close —
// and after every step compares what the Conn sent (a byte-identical
// replay, or a fresh answer) and how many pairs it holds with refDedup.
func TestDedupReferenceParity(t *testing.T) {
	const lifetime, steps = 10 * time.Second, 400
	if len(dedupAddr47) != 47 {
		t.Fatalf("dedupAddr47 is %d bytes", len(dedupAddr47))
	}
	addrs := []string{"a", "b7", "10.0.0.1:5683", dedupAddr47}
	mids := []uint16{0, 1, 2, 0x100, 0xFFFF}
	var replays, answers int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New(seed)
		var (
			tr    *wireTransport
			conn  *Conn
			ref   *refDedup
			calls int
			// Set by the step before an arrival, read by its handler.
			answerLen int
			answerNil bool
			reenter   func()
		)
		open := func() {
			tr = &wireTransport{}
			conn = NewConn(tr, clock.Kernel{K: k}, ConnConfig{ExchangeLifetime: lifetime, BlockSize: 1024, Seed: seed})
			srv := NewServer()
			srv.Resource("r").Get(func(string, *Message) *Message {
				calls++
				if r := reenter; r != nil {
					reenter = nil
					r()
				}
				if answerNil {
					return nil
				}
				// Every answer differs from every other one, so a replay of
				// the wrong record shows.
				p := make([]byte, answerLen)
				for i := range p {
					p[i] = byte(calls + i)
				}
				code := CodeContent
				if answerLen > 1024 {
					code = CodeInternalServerError // not block-wise sliced
				}
				return &Message{Code: code, Payload: p}
			})
			conn.Serve(srv)
			ref = newRefDedup(lifetime)
		}
		open()

		// arrive delivers one CON GET for (addr, mid) and checks the
		// outcome against the model; a nest >= 0 makes the handler advance
		// the clock by nest and deliver the same request again before
		// answering.
		var arrive func(step int, addr string, mid uint16, nest time.Duration)
		arrive = func(step int, addr string, mid uint16, nest time.Duration) {
			t.Helper()
			req := &Message{Type: Confirmable, Code: CodeGET, MessageID: mid, Token: []byte{byte(step), byte(rng.Intn(4))}}
			req.SetPath("r")
			data, err := req.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			key, now := midKey{addr, mid}, k.Now()
			want, hit := ref.lookup(key, now)
			callsBefore := calls
			if !hit && nest >= 0 {
				reenter = func() {
					k.RunFor(nest)
					arrive(step, addr, mid, -1)
				}
			}
			mark := len(tr.log)
			tr.recv(addr, data)
			reenter = nil
			sent := tr.log[mark:]
			if hit {
				if calls != callsBefore || len(sent) != 1 || sent[0].addr != addr || !bytes.Equal(sent[0].data, want) {
					t.Fatalf("seed %d step %d: duplicate CON %s/%d ran the handler %d times and sent %d datagrams, want a replay of %x",
						seed, step, addr, mid, calls-callsBefore, len(sent), want)
				}
				tr.log = tr.log[:mark]
				replays++
				return
			}
			if calls == callsBefore || len(sent) == 0 {
				t.Fatalf("seed %d step %d: fresh CON %s/%d was not answered", seed, step, addr, mid)
			}
			// A nested arrival's datagrams come first; this one's answer
			// is last.
			last := sent[len(sent)-1]
			m, err := Unmarshal(last.data)
			wantTok := req.Token
			if answerNil {
				wantTok = nil // an empty ACK
			}
			if err != nil || last.addr != addr || m.Type != Acknowledgement || m.MessageID != mid || !bytes.Equal(m.Token, wantTok) || (m.Code == CodeEmpty) != answerNil {
				t.Fatalf("seed %d step %d: CON %s/%d answered with %x to %s", seed, step, addr, mid, last.data, last.addr)
			}
			if !answerNil {
				ref.insert(key, now, last.data)
				answers++
			}
			tr.log = tr.log[:mark]
		}

		for step := 0; step < steps; step++ {
			var what string
			switch op := rng.Intn(20); {
			case op < 11:
				what = "arrive"
				addr, mid := addrs[rng.Intn(len(addrs))], mids[rng.Intn(len(mids))]
				answerNil = rng.Intn(12) == 0
				switch rng.Intn(4) {
				case 0:
					answerLen = 0
				case 1:
					answerLen = 1 + rng.Intn(16)
				case 2:
					answerLen = 1000 + rng.Intn(101)
				default:
					answerLen = rng.Intn(1101)
				}
				nest := time.Duration(-1)
				if rng.Intn(8) == 0 {
					what = "arrive re-entered"
					nest = []time.Duration{0, time.Nanosecond, lifetime / 2}[rng.Intn(3)]
				}
				arrive(step, addr, mid, nest)
			case op < 13:
				what = "repeat"
				if len(ref.q) > 0 {
					f := ref.q[rng.Intn(len(ref.q))]
					arrive(step, f.k.addr, f.k.mid, -1)
				}
			case op < 17:
				what = "tick to an arrival's lifetime"
				d := []time.Duration{time.Nanosecond, time.Millisecond, lifetime / 3}[rng.Intn(3)]
				if len(ref.q) > 0 && rng.Intn(3) != 0 {
					// Land exactly on ExchangeLifetime after some arrival, or
					// 1 ns past it, when that is still ahead.
					f := ref.q[rng.Intn(len(ref.q))]
					if due := f.at + lifetime + time.Duration(rng.Intn(2)); due >= k.Now() {
						d = due - k.Now()
					}
				}
				k.RunFor(d)
			case op < 18:
				what = "tick past the lifetime"
				k.RunFor(lifetime + time.Nanosecond)
			case op < 19:
				what = "reset"
				conn.Reset()
				ref.reset()
			default:
				what = "close"
				_ = conn.Close()
				open()
			}
			if len(tr.log) != 0 {
				t.Fatalf("seed %d step %d (%s): %d unexpected datagrams", seed, step, what, len(tr.log))
			}
			if got := dedupLen(conn); got != len(ref.m) {
				t.Fatalf("seed %d step %d (%s): Conn holds %d exchanges, reference %d", seed, step, what, got, len(ref.m))
			}
		}
		_ = conn.Close()
	}
	t.Logf("%d replays, %d cached answers", replays, answers)
}

// TestDedupLogReferenceParity drives the log itself beside refDedup
// with what concurrent handlers can make of it: arrival times out of
// order and repeated, a pair answered twice while its first record is
// held (two copies of a CON that both missed), time steps landing exactly on
// ExchangeLifetime past a record and 1 ns beyond, and Reset; half the
// seeds start the sequence counter just below 2^32. After every step it
// compares lookups and the number of pairs held.
func TestDedupLogReferenceParity(t *testing.T) {
	const lifetime, steps = 10 * time.Second, 600
	addrs := []string{"a", "b7", dedupAddr47}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var log dedupLog
		if seed%2 == 0 {
			log.first = 1<<32 - 50
			log.next = log.first
		}
		ref := newRefDedup(lifetime)
		now := time.Duration(0)
		for step := 0; step < steps; step++ {
			key := midKey{addrs[rng.Intn(len(addrs))], uint16(rng.Intn(3))}
			var what string
			switch op := rng.Intn(10); {
			case op < 4:
				what = "lookup"
				log.expire(now, lifetime)
				got := log.lookup(key.addr, key.mid)
				want, ok := ref.lookup(key, now)
				if (got != nil) != ok || !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: lookup %s/%d = %x, reference %x (cached %v)", seed, step, key.addr, key.mid, got, want, ok)
				}
			case op < 7:
				what = "add"
				// A handler that looked the pair up earlier answers with
				// that earlier time.
				at := now
				switch rng.Intn(4) {
				case 0:
					at -= time.Duration(rng.Int63n(int64(lifetime)/2 + 1))
				case 1:
					if len(ref.q) > 0 {
						at = ref.q[rng.Intn(len(ref.q))].at
					}
				}
				m := &Message{Type: Acknowledgement, Code: CodeContent, MessageID: key.mid, Token: []byte{byte(step)}, Payload: make([]byte, rng.Intn(1101))}
				want, _ := m.Marshal()
				got, err := log.add(key.addr, key.mid, at, m)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: add encoded %x (%v), Marshal %x", seed, step, got, err, want)
				}
				ref.insert(key, at, want)
			case op < 9:
				what = "tick"
				d := []time.Duration{0, time.Nanosecond, lifetime / 4}[rng.Intn(3)]
				if len(ref.q) > 0 && rng.Intn(2) == 0 {
					f := ref.q[rng.Intn(len(ref.q))]
					if due := f.at + lifetime + time.Duration(rng.Intn(2)); due >= now {
						d = due - now
					}
				}
				now += d
			default:
				what = "reset"
				if rng.Intn(4) == 0 {
					log = dedupLog{}
					ref.reset()
				}
			}
			if log.live != len(ref.m) {
				t.Fatalf("seed %d step %d (%s): log holds %d pairs, reference %d", seed, step, what, log.live, len(ref.m))
			}
		}
	}
}

// dedupServer is a Conn on virtual time whose resource "r" answers every
// CON GET with a payload no other answer has; get delivers one and
// returns what the Conn sent back and whether the handler ran.
func dedupServer(t *testing.T, lifetime time.Duration) (*Conn, *sim.Kernel, func(addr string, mid uint16) ([]byte, bool)) {
	t.Helper()
	k := sim.New(1)
	tr := &wireTransport{}
	conn := NewConn(tr, clock.Kernel{K: k}, ConnConfig{ExchangeLifetime: lifetime})
	calls := 0
	srv := NewServer()
	srv.Resource("r").Get(func(string, *Message) *Message {
		calls++
		return TextResponse(fmt.Sprint("answer ", calls))
	})
	conn.Serve(srv)
	get := func(addr string, mid uint16) ([]byte, bool) {
		t.Helper()
		req := &Message{Type: Confirmable, Code: CodeGET, MessageID: mid, Token: []byte{1}}
		req.SetPath("r")
		data, err := req.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		before := calls
		tr.recv(addr, data)
		if len(tr.log) != 1 || tr.log[0].addr != addr {
			t.Fatalf("CON %s/%d drew %d datagrams", addr, mid, len(tr.log))
		}
		out := tr.log[0].data
		tr.log = tr.log[:0]
		return out, calls != before
	}
	return conn, k, get
}

// TestDedupReferenceHashCollision finds two (address, MID) pairs whose
// index hashes collide by birthday search and checks that each replays
// its own answer, while both are held and after the older one expired
// and was answered afresh on top of the other.
func TestDedupReferenceHashCollision(t *testing.T) {
	const mid, lifetime = 7, 10 * time.Second
	seen := map[uint32]string{}
	var a, b string
	for i := 0; a == ""; i++ {
		addr := fmt.Sprintf("10.0.%d.%d:5683", i>>8, i&0xFF)
		h := dedupHash(addr, mid)
		if other, ok := seen[h]; ok {
			a, b = other, addr
		}
		seen[h] = addr
	}
	conn, k, get := dedupServer(t, lifetime)
	defer conn.Close()
	ansA, freshA := get(a, mid)
	k.RunFor(lifetime / 2)
	ansB, freshB := get(b, mid)
	if !freshA || !freshB || bytes.Equal(ansA, ansB) {
		t.Fatalf("colliding pairs %s and %s were not answered separately", a, b)
	}
	if n := len(conn.dedup.index); n != 1 || conn.dedup.live != 2 {
		t.Fatalf("index holds %d hashes for %d pairs, want 1 hash chaining 2", n, conn.dedup.live)
	}
	for _, c := range []struct {
		addr string
		want []byte
	}{{a, ansA}, {b, ansB}, {a, ansA}} {
		if got, fresh := get(c.addr, mid); fresh || !bytes.Equal(got, c.want) {
			t.Fatalf("duplicate from %s replayed %q (handler ran: %v), want %q", c.addr, got, fresh, c.want)
		}
	}
	// a expires, b does not: a is answered afresh and chains on top of b.
	k.RunFor(lifetime/2 + time.Nanosecond)
	ansA2, fresh := get(a, mid)
	if !fresh || bytes.Equal(ansA2, ansA) {
		t.Fatalf("expired pair %s replayed %q, want a fresh answer", a, ansA2)
	}
	if got, fresh := get(b, mid); fresh || !bytes.Equal(got, ansB) {
		t.Fatalf("duplicate from %s replayed %q (handler ran: %v), want %q", b, got, fresh, ansB)
	}
	if got, fresh := get(a, mid); fresh || !bytes.Equal(got, ansA2) {
		t.Fatalf("duplicate from %s replayed %q (handler ran: %v), want %q", a, got, fresh, ansA2)
	}
}

// TestDedupReferenceSequenceWrap starts a Conn's log just below 2^32, so
// its first chunk ends at the wrap and the index chains across it, and
// checks replays, expiry across the wrap and chunk release.
func TestDedupReferenceSequenceWrap(t *testing.T) {
	const lifetime = 20 * time.Second
	conn, k, get := dedupServer(t, lifetime)
	defer conn.Close()
	conn.dedup.first = 1<<32 - 3
	conn.dedup.next = conn.dedup.first
	answers := map[midKey][]byte{}
	for i := 0; i < 12; i++ {
		key := midKey{fmt.Sprintf("c%d", i%4), uint16(i)}
		ans, fresh := get(key.addr, key.mid)
		if !fresh {
			t.Fatalf("CON %d was replayed", i)
		}
		answers[key] = ans
		k.RunFor(time.Second)
	}
	if conn.dedup.next != 9 || len(conn.dedup.chunks) < 2 {
		t.Fatalf("sequence at %d over %d chunks, want 9 past the wrap over several chunks", conn.dedup.next, len(conn.dedup.chunks))
	}
	for key, want := range answers {
		if got, fresh := get(key.addr, key.mid); fresh || !bytes.Equal(got, want) {
			t.Fatalf("duplicate %s/%d replayed %q (handler ran: %v), want %q", key.addr, key.mid, got, fresh, want)
		}
	}
	// The six oldest expire (the first chunk, across the wrap, goes with
	// them); the six newest still replay.
	k.RunFor(lifetime - 7*time.Second + time.Nanosecond)
	for i := 11; i >= 0; i-- {
		key := midKey{fmt.Sprintf("c%d", i%4), uint16(i)}
		got, fresh := get(key.addr, key.mid)
		if fresh != (i < 6) || (!fresh && !bytes.Equal(got, answers[key])) {
			t.Fatalf("CON %d after expiry: handler ran %v, replay %q", i, fresh, got)
		}
	}
	if conn.dedup.chunks[0].base == 1<<32-3 {
		t.Fatal("the chunk before the wrap was not released")
	}
	if n, _, _ := conn.DedupStats(); n != 12 {
		t.Fatalf("%d pairs held, want 12 (six re-answered, six replayed)", n)
	}
}

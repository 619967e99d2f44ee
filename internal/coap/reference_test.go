package coap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// This file keeps the observe registry's reference model: per resource,
// a plain map from (address, token) to the MID of the last notification
// that observer was sent, with register, deregister, RST, cap and
// CON-timeout rules written out once, sequentially, without shards,
// pools or atomics. TestObserveReferenceParity drives it beside a real
// Server over drawn op sequences.

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
	obs     []map[tokenKey]int // per resource: key -> last notification MID or refNone
	pending []refCON
	nextMID uint16 // last MID the server's Conn handed out
}

func newRefRegistry(resources, limit int, seed int64) *refRegistry {
	m := &refRegistry{limit: limit, obs: make([]map[tokenKey]int, resources), nextMID: uint16(seed)}
	for i := range m.obs {
		m.obs[i] = map[tokenKey]int{}
	}
	return m
}

// request answers one GET on resource res, observe is the Observe
// option (0 register, 1 deregister), fail makes the handler answer 5.00.
// It returns the expected response code and whether it carries Observe.
// Every request is NON, so its response takes one MID.
func (m *refRegistry) request(res int, k tokenKey, observe uint32, fail bool) (Code, bool) {
	m.nextMID++
	if observe == 1 {
		delete(m.obs[res], k) // deregistration holds whatever the handler answers
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
	}
	return CodeContent, true
}

// notify sends one notification round on resource res: every observer
// in (address, token) order, one consecutive MID each.
func (m *refRegistry) notify(res int, con bool) []refCON {
	keys := make([]tokenKey, 0, len(m.obs[res]))
	for k := range m.obs[res] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		return bytes.Compare(keys[i].token(), keys[j].token()) < 0
	})
	sent := make([]refCON, len(keys))
	for i, k := range keys {
		m.nextMID++
		m.obs[res][k] = int(m.nextMID)
		sent[i] = refCON{res, k, m.nextMID}
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
	for _, obs := range m.obs {
		for k, last := range obs {
			if k.addr == addr && last == int(mid) {
				delete(obs, k)
			}
		}
	}
}

// timeout lets every pending CON run out of retransmissions: each drops
// its registration key, whoever holds it now.
func (m *refRegistry) timeout() {
	for _, p := range m.pending {
		delete(m.obs[p.res], p.k)
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
// MID of the last notification it was sent, refNone for none.
func registryOf(r *Resource) map[tokenKey]int {
	out := map[tokenKey]int{}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for k, last := range sh.m {
			out[k] = int(last)
			if last == noMID {
				out[k] = refNone
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// TestObserveReferenceParity draws op sequences — register, re-register
// on the same token, failed GET, Observe=1 deregistration, NON and CON
// notification rounds, ACKs, an RST of an observer's last notification
// MID, an RST of a MID never sent to that address, the cap boundary and
// CON-notification timeout — and after every step compares the server's
// registry, its observer counts, its pending CON exchanges and
// everything it sent with the reference model's.
func TestObserveReferenceParity(t *testing.T) {
	const resources, limit, steps = 3, 5, 300
	addrs := []string{"c1", "c12", "c2", "c3", "d"}
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
				got, want := registryOf(r), ref.obs[ri]
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
				for i, m := range msgs {
					retransmit := func(p refCON) bool { return p.k.addr == to[i] && p.mid == m.MessageID }
					if m.Type != Confirmable || !slices.ContainsFunc(ref.pending, retransmit) {
						t.Fatalf("seed %d step %d: %v mid %d to %s while awaiting timeouts", seed, step, m.Type, m.MessageID, to[i])
					}
				}
				ref.timeout()
			}
			if _, msgs := tr.take(t); len(msgs) != 0 {
				t.Fatalf("seed %d step %d (%s): %d unexpected datagrams", seed, step, what, len(msgs))
			}
			check(step, what)
		}
		_ = conn.Close()
	}
}

package coap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// TestObserverTableReferenceParity drives one shard's table directly —
// insert, remove, a fan-out's MID stamp and RST removal — over drawn
// sequences, against a map from (address, token) to last MID, and checks
// the table against itself after every step (tableOf). Many addresses
// per shard and a few tokens each make long probe runs, so deletion
// shifts entries back across runs and around the end of the index; some
// addresses are long enough to carry a length prefix. Every address
// view handed out must read the same after any later step, compactions
// included.
func TestObserverTableReferenceParity(t *testing.T) {
	addrs := make([]string, 48)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.%d.%d:5683", i/7, i)
		if i%11 == 0 {
			addrs[i] = strings.Repeat(fmt.Sprint(i), 300)[:255+i]
		}
	}
	addrs = append(addrs, "")
	tokens := [][]byte{nil, {1}, {1, 2}, {0xFF, 0, 1, 2, 3, 4, 5, 6}}
	type view struct{ got, want string }
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sh obsShard
		model := map[tokenKey]int{}
		var views []view
		nextMID := uint16(rng.Intn(1 << 16))
		compactions := 0
		for step := 0; step < 2000; step++ {
			addr, tok := addrs[rng.Intn(len(addrs))], tokens[rng.Intn(len(tokens))]
			h, key := addrHash(addr), obsKey(tok)
			k := newTokenKey(addr, tok)
			before := len(sh.arena)
			switch op := rng.Intn(10); {
			case op < 4:
				slot, ri := sh.find(addr, h, &key)
				if _, ok := model[k]; ok != (ri >= 0) {
					t.Fatalf("seed %d step %d: find %q/%x = %d, model holds it: %v", seed, step, addr, tok, ri, ok)
				}
				if ri < 0 {
					sh.insert(addr, h, key, slot)
					model[k] = refNone
				}
			case op < 7:
				if slot, ri := sh.find(addr, h, &key); ri >= 0 {
					sh.remove(slot, ri)
					delete(model, k)
				}
			case op < 8:
				// What notifyShard stamps; now and then every record gets one
				// MID, as a block longer than the MID space would repeat them.
				repeat := rng.Intn(4) == 0
				for i := range sh.recs {
					if !repeat || i == 0 {
						nextMID++
					}
					sh.recs[i].mid = nextMID
					sh.recs[i].tl |= obsNotified
					o := &sh.recs[i]
					model[newTokenKey(o.addr(sh.arena), o.token())] = int(nextMID)
				}
			default:
				mid := uint16(rng.Intn(1 << 16))
				if len(sh.recs) > 0 && rng.Intn(4) != 0 {
					o := &sh.recs[rng.Intn(len(sh.recs))]
					addr, h, mid = o.addr(sh.arena), addrHash(o.addr(sh.arena)), o.mid
				}
				want := 0
				for mk, last := range model {
					if mk.addr == addr && last == int(mid) {
						delete(model, mk)
						want++
					}
				}
				if got, _ := sh.dropMID(addr, h, mid); got != want {
					t.Fatalf("seed %d step %d: RST %q mid %d removed %d, model %d", seed, step, addr, mid, got, want)
				}
			}
			if len(sh.arena) < before {
				compactions++
			}
			got := tableOf(t, &sh)
			if len(got) != len(model) {
				t.Fatalf("seed %d step %d: table holds %d observers, model %d", seed, step, len(got), len(model))
			}
			for mk, last := range model {
				if g, ok := got[mk]; !ok || g != last {
					t.Fatalf("seed %d step %d: %q/%x is %d (held %v), model %d", seed, step, mk.addr, mk.token(), g, ok, last)
				}
			}
			if len(sh.recs) > 0 && step%4 == 0 {
				o := &sh.recs[rng.Intn(len(sh.recs))]
				v := o.addr(sh.arena)
				views = append(views, view{v, strings.Clone(v)})
			}
			for _, v := range views {
				if v.got != v.want {
					t.Fatalf("seed %d step %d: an address view reads %q, was %q", seed, step, v.got, v.want)
				}
			}
		}
		if compactions == 0 {
			t.Fatalf("seed %d: the arena was never compacted", seed)
		}
	}
}

// TestRSTComparesOneRun counts the records an RST compares: the records
// of one probe run of the sender's address per resource whose index slot
// carries the address's hash bits, whatever the number of observers.
// 1 000 and 100 000 observers over four resources each take an RST of
// the last notification of every hundredth observer; the mean count must
// stay under one bound and no RST may compare more than another, at both
// sizes, and the mean may not grow by half from the smaller to the
// larger. (The old registry compared every observer of every resource,
// 100 times more at the larger; while a probe read every record of the
// run, the mean was 7.20 and 8.05 and the most 13 and 78.)
func TestRSTComparesOneRun(t *testing.T) {
	const resources, bound, mostBound = 4, 2, 4
	mean := map[int]float64{}
	for _, n := range []int{1_000, 100_000} {
		conn := NewConn(&sinkTransport{}, clock.Kernel{K: sim.New(1)}, ConnConfig{})
		srv := NewServer()
		srv.SetObserverLimit(n)
		srv.SetConfirmEvery(-1)
		conn.Serve(srv)
		res := make([]*Resource, resources)
		for i := range res {
			res[i] = srv.Resource(fmt.Sprintf("plant/%d", i)).Observable()
		}
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("10.%d.%d.%d:5683", i>>16, i>>8&0xFF, i&0xFF)
			if err := res[i%resources].addObserver(addrs[i], []byte{0xC0, byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range res {
			r.Notify(FormatText, []byte("20.5"))
		}
		lastMID := map[string]uint16{}
		for _, r := range res {
			for k, mid := range registryOf(t, r) {
				lastMID[k.addr] = uint16(mid)
			}
		}
		compared, rsts, most := 0, 0, 0
		for i := 0; i < n; i += 100 {
			c := srv.removeObserverByMID(addrs[i], lastMID[addrs[i]])
			compared += c
			most = max(most, c)
			rsts++
		}
		left := 0
		for _, r := range res {
			left += r.ObserverCount()
		}
		if left != n-rsts {
			t.Fatalf("%d observers: %d left after %d RSTs, want %d", n, left, rsts, n-rsts)
		}
		mean[n] = float64(compared) / float64(rsts)
		t.Logf("%d observers: %.2f records compared per RST (at most %d)", n, mean[n], most)
		if most > mostBound {
			t.Errorf("%d observers: an RST compared %d records, want <= %d", n, most, mostBound)
		}
	}
	for n, m := range mean {
		if m > bound {
			t.Errorf("%d observers: an RST compares %.2f records, want <= %d", n, m, bound)
		}
	}
	if mean[100_000] > 1.5*mean[1_000] {
		t.Errorf("an RST compares %.2f records at 100 000 observers and %.2f at 1 000: the count grows with the table", mean[100_000], mean[1_000])
	}
}

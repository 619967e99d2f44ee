package exp

import (
	"bytes"
	"fmt"
	"time"

	"iiotds/internal/mac"
	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/security"
	"iiotds/internal/sim"
	"iiotds/internal/trial"
)

// e11Run measures one protection mode over a one-hop link.
type e11Run struct {
	mode         string
	delivered    int
	bytesOnAir   float64
	energyJ      float64
	meanLatency  time.Duration
	attacksTried int
	attacksOK    int // attacks that *succeeded* (accepted by receiver)
}

// runE11 pushes msgs sensor readings from node 1 to node 0 over CSMA,
// optionally AEAD-protected, while an attacker node replays and tampers
// frames at the application layer. It returns delivery, overhead, and
// attack outcomes.
func runE11(tr *trial.Trial, secured bool, msgs int, seed int64) e11Run {
	k := sim.New(seed)
	tr.Observe(k)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	tr.ObserveMedium(k, m)
	macs := make([]*mac.CSMA, 3)
	for i := 0; i < 3; i++ {
		idx := i
		m.Attach(radio.NodeID(i), radio.Position{X: float64(i) * 8}, radio.ReceiverFunc(func(f radio.Frame) {
			macs[idx].RadioReceive(f)
		}))
		macs[i] = mac.NewCSMA(m, radio.NodeID(i), mac.CSMAConfig{})
		macs[i].Start()
	}

	out := e11Run{}
	var tx, rx *security.Channel
	if secured {
		ks := security.NewKeyStore()
		// Session establishment over the PSK handshake.
		psk := bytes.Repeat([]byte{0x42}, 16)
		a, b := security.NewHandshake(psk), security.NewHandshake(psk)
		m1 := a.Initiate([]byte("node1-nonce"))
		m2, kb := b.Respond(m1, []byte("node0-nonce"))
		ka := a.Complete(m2)
		if err := ks.Set(1, ka); err != nil {
			panic(err)
		}
		ks2 := security.NewKeyStore()
		if err := ks2.Set(1, kb); err != nil {
			panic(err)
		}
		var err error
		if tx, err = security.NewChannel(ks, 1); err != nil {
			panic(err)
		}
		if rx, err = security.NewChannel(ks2, 1); err != nil {
			panic(err)
		}
	}

	// The attacker captures application frames by overhearing and later
	// replays them (and injects tampered copies) toward the sink.
	var captured [][]byte
	accepted := 0
	var latSum time.Duration
	sendTimes := map[byte]sim.Time{}
	macs[0].OnReceive(func(from radio.NodeID, p []byte) {
		var plain []byte
		if secured {
			var err error
			plain, err = rx.Open(p, nil)
			if err != nil {
				return // rejected at the security layer
			}
		} else {
			plain = p
		}
		if len(plain) == 0 {
			return
		}
		accepted++
		if at, ok := sendTimes[plain[0]]; ok {
			latSum += k.Now() - at
			delete(sendTimes, plain[0])
			out.delivered++
		} else {
			// No matching live send: a replay/tamper got through.
			out.attacksOK++
		}
	})

	for i := 0; i < msgs; i++ {
		i := i
		k.Schedule(time.Duration(i)*200*time.Millisecond, func() {
			reading := []byte{byte(i), 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70}
			if secured {
				// Seal in place in a pooled buffer and hand it straight to
				// the MAC; the attacker's capture is its own copy.
				b := macs[1].Buffers().Get()
				b.Append(reading)
				tx.SealBuffer(b, nil)
				captured = append(captured, netbuf.CloneBytes(b.Bytes()))
				sendTimes[byte(i)] = k.Now()
				macs[1].SendBuf(0, b, nil)
				return
			}
			captured = append(captured, reading)
			sendTimes[byte(i)] = k.Now()
			macs[1].Send(0, reading, nil)
		})
	}
	k.RunFor(time.Duration(msgs)*200*time.Millisecond + 5*time.Second)

	// Attack phase: the adversary (node 2) replays every captured frame
	// and injects bit-flipped variants.
	attackStart := k.Now()
	for i, f := range captured {
		i, f := i, netbuf.CloneBytes(f)
		k.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			out.attacksTried += 2
			macs[2].Send(0, f, nil) // replay
			tampered := netbuf.CloneBytes(f)
			tampered[len(tampered)-1] ^= 0xFF
			macs[2].Send(0, tampered, nil) // tamper
		})
	}
	k.RunFor(time.Duration(len(captured))*100*time.Millisecond + 5*time.Second)
	_ = attackStart

	if out.delivered > 0 {
		out.meanLatency = latSum / time.Duration(out.delivered)
	}
	out.bytesOnAir = m.Registry().Counter("radio.tx_bytes").Value()
	out.energyJ = m.Energy().Ledger(1).TotalJoules() + m.Energy().Ledger(0).TotalJoules()
	if secured {
		out.mode = "AEAD+replay-window"
	} else {
		out.mode = "plain"
	}
	return out
}

// E11Security tests §V-E: the secure modes the standards define but
// deployments skip cost little — a fixed per-frame overhead — and without
// them arbitrary faults (replays, tampered frames) enter the system
// freely, violating designers' assumptions.
func E11Security(s Scale) *Table {
	msgs := 50
	if s == Full {
		msgs = 500
	}

	runs, rs := trial.Sweep([]bool{false, true}, func(tr *trial.Trial, secured bool) e11Run {
		return runE11(tr, secured, msgs, 1101)
	})
	plain, sec := runs[0], runs[1]

	t := &Table{
		ID:      "E11",
		Title:   "Cost of link protection vs exposure without it",
		Claim:   "§V-E: security provisions exist but are hardly implemented; unsecured layers admit arbitrary fault injection",
		Columns: []string{"mode", "delivered", "mean latency", "bytes on air", "energy (J)", "attacks accepted"},
	}
	t.Stats = rs
	for _, r := range []e11Run{plain, sec} {
		t.AddRow(r.mode, fmt.Sprintf("%d/%d", r.delivered, msgs),
			fmt.Sprintf("%.1f ms", float64(r.meanLatency.Microseconds())/1000),
			f1(r.bytesOnAir), f3(r.energyJ),
			fmt.Sprintf("%d/%d", r.attacksOK, r.attacksTried))
	}

	overheadPct := (sec.bytesOnAir - plain.bytesOnAir) / plain.bytesOnAir * 100
	t.Finding = fmt.Sprintf(
		"AEAD framing adds %d B/frame (%.0f%% on-air here) and blocks all %d injected attacks; the plain link accepted %d of %d",
		security.Overhead(), overheadPct, sec.attacksTried, plain.attacksOK, plain.attacksTried)
	return t
}

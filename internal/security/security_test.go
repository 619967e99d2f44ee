package security

import (
	"bytes"
	"testing"
	"testing/quick"

	"iiotds/internal/netbuf"
)

func pair(t testing.TB) (*Channel, *Channel) {
	t.Helper()
	ks := NewKeyStore()
	if err := ks.Set(1, bytes.Repeat([]byte{7}, 16)); err != nil {
		t.Fatal(err)
	}
	tx, err := NewChannel(ks, 1)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewChannel(ks, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

func TestSealOpenRoundTrip(t *testing.T) {
	tx, rx := pair(t)
	frame := tx.Seal([]byte("temp=21.5"), []byte("hdr"))
	got, err := rx.Open(frame, []byte("hdr"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "temp=21.5" {
		t.Fatalf("got %q", got)
	}
	if tx.SealedFrames != 1 {
		t.Fatalf("SealedFrames = %d", tx.SealedFrames)
	}
}

func TestOverheadIsExact(t *testing.T) {
	tx, _ := pair(t)
	pt := []byte("0123456789")
	frame := tx.Seal(pt, nil)
	if len(frame)-len(pt) != Overhead() {
		t.Fatalf("overhead = %d, want %d", len(frame)-len(pt), Overhead())
	}
}

func TestTamperedFrameRejected(t *testing.T) {
	tx, rx := pair(t)
	frame := tx.Seal([]byte("valve=open"), nil)
	for _, idx := range []int{0, 5, headerLen, len(frame) - 1} {
		tampered := append([]byte(nil), frame...)
		tampered[idx] ^= 0x01
		if _, err := rx.Open(tampered, nil); err == nil {
			t.Fatalf("tampered byte %d accepted", idx)
		}
	}
	// The untampered frame still opens (window not poisoned).
	if _, err := rx.Open(frame, nil); err != nil {
		t.Fatalf("genuine frame rejected after tamper attempts: %v", err)
	}
	if rx.RejectedFrames == 0 {
		t.Fatal("rejections not counted")
	}
}

func TestWrongAADRejected(t *testing.T) {
	tx, rx := pair(t)
	frame := tx.Seal([]byte("x"), []byte("route=a"))
	if _, err := rx.Open(frame, []byte("route=b")); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestReplayRejected(t *testing.T) {
	tx, rx := pair(t)
	frame := tx.Seal([]byte("cmd"), nil)
	if _, err := rx.Open(frame, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(frame, nil); err != ErrReplay {
		t.Fatalf("replay err = %v, want ErrReplay", err)
	}
}

func TestOutOfOrderWithinWindowAccepted(t *testing.T) {
	tx, rx := pair(t)
	f1 := tx.Seal([]byte("1"), nil)
	f2 := tx.Seal([]byte("2"), nil)
	f3 := tx.Seal([]byte("3"), nil)
	for _, f := range [][]byte{f3, f1, f2} { // reordered
		if _, err := rx.Open(f, nil); err != nil {
			t.Fatalf("in-window reorder rejected: %v", err)
		}
	}
	// But replaying any of them still fails.
	if _, err := rx.Open(f1, nil); err != ErrReplay {
		t.Fatalf("replay after reorder err = %v", err)
	}
}

func TestAncientFrameRejected(t *testing.T) {
	tx, rx := pair(t)
	old := tx.Seal([]byte("old"), nil)
	var last []byte
	for i := 0; i < windowSize+8; i++ {
		last = tx.Seal([]byte("new"), nil)
	}
	if _, err := rx.Open(last, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(old, nil); err != ErrReplay {
		t.Fatalf("ancient frame err = %v, want ErrReplay", err)
	}
}

func TestReplayWindowUnit(t *testing.T) {
	var w ReplayWindow
	if !w.Check(100) {
		t.Fatal("first counter rejected")
	}
	if w.Check(100) {
		t.Fatal("duplicate accepted")
	}
	if !w.Check(99) || !w.Check(101) || !w.Check(40) {
		t.Fatal("in-window counters rejected")
	}
	if w.Check(99) {
		t.Fatal("duplicate 99 accepted")
	}
	if w.Check(101 - windowSize) {
		t.Fatal("out-of-window counter accepted")
	}
	// Large jump resets the bitmap.
	if !w.Check(10_000) || w.Check(10_000) {
		t.Fatal("jump handling wrong")
	}
}

func TestShortAndWrongKeyFrames(t *testing.T) {
	tx, rx := pair(t)
	if _, err := rx.Open([]byte{1, 2, 3}, nil); err != ErrTooShort {
		t.Fatalf("short err = %v", err)
	}
	frame := tx.Seal([]byte("x"), nil)
	frame[0] = 9 // unknown key ID
	if _, err := rx.Open(frame, nil); err == nil {
		t.Fatal("wrong key ID accepted")
	}
}

func TestKeyStoreValidation(t *testing.T) {
	ks := NewKeyStore()
	if err := ks.Set(1, []byte("short")); err == nil {
		t.Fatal("bad key length accepted")
	}
	if _, err := ks.Get(42); err == nil {
		t.Fatal("missing key returned")
	}
	if err := ks.Set(2, bytes.Repeat([]byte{1}, 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewChannel(ks, 2); err != nil {
		t.Fatalf("AES-256 channel: %v", err)
	}
}

func TestHandshakeDerivesSameKey(t *testing.T) {
	psk := bytes.Repeat([]byte{0xAA}, 16)
	init := NewHandshake(psk)
	resp := NewHandshake(psk)
	msg1 := init.Initiate([]byte("nonce-A"))
	msg2, respKey := resp.Respond(msg1, []byte("nonce-B"))
	initKey := init.Complete(msg2)
	if !bytes.Equal(initKey, respKey) {
		t.Fatal("handshake keys differ")
	}
	if len(initKey) != 16 {
		t.Fatalf("key length = %d", len(initKey))
	}
	// Different nonces give different keys.
	other := DeriveSessionKey(psk, []byte("nonce-X"), []byte("nonce-B"))
	if bytes.Equal(other, initKey) {
		t.Fatal("nonce change did not change key")
	}
	// Different PSK gives different keys.
	if bytes.Equal(DeriveSessionKey([]byte("wrong"), []byte("nonce-A"), []byte("nonce-B")), initKey) {
		t.Fatal("psk change did not change key")
	}
}

func TestEndToEndWithDerivedKey(t *testing.T) {
	psk := bytes.Repeat([]byte{3}, 16)
	a, b := NewHandshake(psk), NewHandshake(psk)
	m1 := a.Initiate([]byte("na"))
	m2, kb := b.Respond(m1, []byte("nb"))
	ka := a.Complete(m2)
	ks := NewKeyStore()
	if err := ks.Set(5, ka); err != nil {
		t.Fatal(err)
	}
	ks2 := NewKeyStore()
	if err := ks2.Set(5, kb); err != nil {
		t.Fatal(err)
	}
	tx, _ := NewChannel(ks, 5)
	rx, _ := NewChannel(ks2, 5)
	got, err := rx.Open(tx.Seal([]byte("secured"), nil), nil)
	if err != nil || string(got) != "secured" {
		t.Fatalf("e2e: %v %q", err, got)
	}
}

func TestPropertySealOpenAnyPayload(t *testing.T) {
	tx, rx := pair(t)
	f := func(payload, aad []byte) bool {
		frame := tx.Seal(payload, aad)
		got, err := rx.Open(frame, aad)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSealBufferMatchesSeal pins the in-place buffer path to the slice
// path byte for byte: two channels with the same key and counter state
// must produce identical on-air frames, and Open must recover the
// plaintext.
func TestSealBufferMatchesSeal(t *testing.T) {
	txA, _ := pair(t)
	txB, rx := pair(t)
	pool := netbuf.NewPool()
	pool.SetPoison(true)
	for i := 0; i < 5; i++ {
		pt := []byte("reading-21.5-round-" + string(rune('a'+i)))
		aad := []byte{byte(i)}
		want := txA.Seal(pt, aad)

		b := pool.Get()
		b.Append(pt)
		txB.SealBuffer(b, aad)
		if !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("round %d: SealBuffer %x != Seal %x", i, b.Bytes(), want)
		}

		if got, err := rx.Open(b.Bytes(), aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("round %d: Open = %x, %v, want %x", i, got, err, pt)
		}
		b.Release()
	}
}

// TestRebootWithOldKeyRejectedAsReplay pins the hazard that makes re-keying
// after a crash mandatory: a rebooted node loses its send counter (a fresh
// Channel starts at zero) while the peer's ReplayWindow survives, so every
// frame the rebooted node seals under the old key reuses counters the peer
// has already accepted and is rejected with ErrReplay.
func TestRebootWithOldKeyRejectedAsReplay(t *testing.T) {
	ks := NewKeyStore()
	if err := ks.Set(1, bytes.Repeat([]byte{7}, 16)); err != nil {
		t.Fatal(err)
	}
	tx, _ := NewChannel(ks, 1)
	rx, _ := NewChannel(ks, 1)

	// Pre-crash traffic advances both the sender counter and the peer's
	// replay window.
	for i := 0; i < 5; i++ {
		if _, err := rx.Open(tx.Seal([]byte("pre"), nil), nil); err != nil {
			t.Fatalf("pre-crash frame %d: %v", i, err)
		}
	}

	// Reboot: RAM state (the counter) is lost, the provisioned key is not.
	rebooted, _ := NewChannel(ks, 1)
	for i := 0; i < 5; i++ {
		if _, err := rx.Open(rebooted.Seal([]byte("post"), nil), nil); err != ErrReplay {
			t.Fatalf("post-reboot frame %d with stale key: err = %v, want ErrReplay", i, err)
		}
	}
}

// TestRekeyAfterRebootAccepted is the E11 recovery path: after a reboot the
// node runs a fresh handshake with new nonces, both sides derive a new
// session key and build new Channels, and the peer accepts the rebooted
// node's zeroed-counter traffic because its replay window is fresh too.
func TestRekeyAfterRebootAccepted(t *testing.T) {
	psk := bytes.Repeat([]byte{0x42}, 16)

	// Session 1: normal operation before the crash.
	a1, b1 := NewHandshake(psk), NewHandshake(psk)
	m2, kb1 := b1.Respond(a1.Initiate([]byte("boot-1-a")), []byte("boot-1-b"))
	ka1 := a1.Complete(m2)
	ksA, ksB := NewKeyStore(), NewKeyStore()
	if err := ksA.Set(1, ka1); err != nil {
		t.Fatal(err)
	}
	if err := ksB.Set(1, kb1); err != nil {
		t.Fatal(err)
	}
	tx1, _ := NewChannel(ksA, 1)
	rx1, _ := NewChannel(ksB, 1)
	for i := 0; i < 5; i++ {
		if _, err := rx1.Open(tx1.Seal([]byte("pre"), nil), nil); err != nil {
			t.Fatalf("session-1 frame %d: %v", i, err)
		}
	}

	// Node A crashes and reboots. Session 2: fresh handshake with new
	// nonces yields a different key, so the peer installs a new Channel
	// with a fresh replay window.
	a2, b2 := NewHandshake(psk), NewHandshake(psk)
	m2b, kb2 := b2.Respond(a2.Initiate([]byte("boot-2-a")), []byte("boot-2-b"))
	ka2 := a2.Complete(m2b)
	if bytes.Equal(ka2, ka1) {
		t.Fatal("re-key produced the same session key")
	}
	if err := ksA.Set(1, ka2); err != nil {
		t.Fatal(err)
	}
	if err := ksB.Set(1, kb2); err != nil {
		t.Fatal(err)
	}
	tx2, _ := NewChannel(ksA, 1)
	rx2, _ := NewChannel(ksB, 1)
	for i := 0; i < 5; i++ {
		got, err := rx2.Open(tx2.Seal([]byte("post"), nil), nil)
		if err != nil {
			t.Fatalf("post-rekey frame %d rejected: %v", i, err)
		}
		if string(got) != "post" {
			t.Fatalf("post-rekey frame %d payload = %q", i, got)
		}
	}
	if rx2.RejectedFrames != 0 {
		t.Fatalf("peer rejected %d re-keyed frames", rx2.RejectedFrames)
	}
}

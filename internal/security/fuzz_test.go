package security

import (
	"bytes"
	"errors"
	"testing"
)

// sealSeeds adds, for each of a few plaintexts, the frame pair's sender
// seals for it first, with the plaintext, its AAD and a byte to flip.
func sealSeeds(f *testing.F) {
	for i, pt := range [][]byte{nil, []byte("temp=21.5"), bytes.Repeat([]byte{0xA5}, 100)} {
		tx, _ := pair(f)
		aad := []byte{byte(i), 'h'}
		f.Add(tx.Seal(pt, aad), pt, aad, uint16(i*7))
	}
	f.Add([]byte{1, 0, 0, 0}, []byte{}, []byte{}, uint16(0)) // too short
}

// flipped returns a copy of frame with one bit of one byte inverted.
func flipped(frame []byte, flip uint16) []byte {
	out := bytes.Clone(frame)
	out[int(flip>>3)%len(out)] ^= 1 << (flip & 7)
	return out
}

// refused reports whether err is one of Open's refusals.
func refused(err error) bool {
	return errors.Is(err, ErrAuth) || errors.Is(err, ErrNoKey) || errors.Is(err, ErrReplay) || errors.Is(err, ErrTooShort)
}

// FuzzOpen throws arbitrary frames at Channel.Open, the decoder of every
// sealed frame a peer sends. It must not panic, must refuse with one of
// its errors, and must refuse a frame it accepted when it comes again.
// A frame sealed for plaintext opens to it once: with any bit flipped it
// is refused, and a second copy is refused as a replay.
func FuzzOpen(f *testing.F) {
	sealSeeds(f)
	f.Fuzz(func(t *testing.T, frame, plaintext, aad []byte, flip uint16) {
		_, rx := pair(t)
		if _, err := rx.Open(frame, aad); err == nil {
			if _, err := rx.Open(frame, aad); !errors.Is(err, ErrReplay) {
				t.Fatalf("accepted frame opened again: %v", err)
			}
		} else if !refused(err) {
			t.Fatalf("unknown refusal %v", err)
		}

		tx, rx := pair(t)
		sealed := tx.Seal(plaintext, aad)
		if _, err := rx.Open(flipped(sealed, flip), aad); !refused(err) {
			t.Fatalf("frame with bit %d flipped: %v", flip, err)
		}
		got, err := rx.Open(sealed, aad)
		if err != nil || !bytes.Equal(got, plaintext) {
			t.Fatalf("Seal then Open: %x, %v, want %x", got, err, plaintext)
		}
		if _, err := rx.Open(sealed, aad); !errors.Is(err, ErrReplay) {
			t.Fatalf("replayed frame: %v", err)
		}
	})
}

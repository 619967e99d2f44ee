package mac

import (
	"bytes"
	"testing"

	"iiotds/internal/netbuf"
)

// FuzzDecode feeds arbitrary bytes to the MAC header decoder, which is
// the first thing every frame a radio peer sends reaches. It must not
// panic, must reject exactly the frames shorter than a header, and a
// frame it accepts must re-encode (frame, over the decoded payload) to
// the same bytes.
func FuzzDecode(f *testing.F) {
	p := netbuf.NewPool()
	for _, k := range []Kind{KindData, KindAck, KindBeacon} {
		b := control(p, k, 0xBEEF)
		f.Add(append([]byte(nil), b.Bytes()...))
		b.Release()
	}
	d := copyIn(p, []byte{2, 1, 6, 0, 1, 0, 0})
	frame(d, KindData, 7)
	f.Add(append([]byte(nil), d.Bytes()...))
	d.Release()
	f.Add([]byte{1, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		kind, seq, payload, err := decode(raw)
		if (err != nil) != (len(raw) < headerLen) {
			t.Fatalf("decode(%x) err = %v", raw, err)
		}
		if err != nil {
			return
		}
		b := copyIn(p, payload)
		frame(b, kind, seq)
		if !bytes.Equal(b.Bytes(), raw) {
			t.Fatalf("decode(%x) re-encodes to %x", raw, b.Bytes())
		}
		b.Release()
	})
}

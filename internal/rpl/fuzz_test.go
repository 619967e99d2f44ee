package rpl

import (
	"bytes"
	"testing"
)

// The routing decoders read what any radio peer broadcasts. Each fuzz
// target checks that its decoder never panics, accepts a message exactly
// when it is long enough and carries its type byte, and that what it
// accepts re-encodes to the bytes it read (the decoders ignore trailing
// bytes, so the comparison is over the encoded length).

func fuzzDecoder[M interface{ encode() []byte }](f *testing.F, typ msgType, size int, decode func([]byte) (M, error), seeds ...M) {
	for _, s := range seeds {
		f.Add(s.encode())
	}
	f.Add([]byte{byte(typ)})
	f.Add(append(seeds[0].encode(), 0xFF))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decode(raw)
		if want := len(raw) >= size && msgType(raw[0]) == typ; (err == nil) != want {
			t.Fatalf("decode(%x) err = %v, want accepted = %v", raw, err, want)
		}
		if err != nil {
			return
		}
		if enc := m.encode(); !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatalf("decode(%x) re-encodes to %x", raw, enc)
		}
	})
}

func FuzzDecodeDIO(f *testing.F) {
	fuzzDecoder(f, msgDIO, 6, decodeDIO,
		dio{Version: 1, Rank: 256, Root: 0}, dio{Version: 255, Rank: InfiniteRank, Root: 999})
}

func FuzzDecodeDAO(f *testing.F) {
	fuzzDecoder(f, msgDAO, 5, decodeDAO, dao{Target: 12, Seq: 3}, dao{Target: 65535, Seq: 65535})
}

func FuzzDecodeSuspect(f *testing.F) {
	fuzzDecoder(f, msgSuspect, 4, decodeSuspect, suspect{Sentinel: 4, Epoch: 1})
}

func FuzzDecodeVerdict(f *testing.F) {
	fuzzDecoder(f, msgVerdict, 4, decodeVerdict, verdict{Root: 0, Epoch: 2})
}

package radio

import (
	"testing"
	"unsafe"
)

// TestReceiverRecordLayout pins the receiver record: every field of
// nodeState that launch reads or writes for a receiver lies in the
// record's first 64 bytes, the record is a whole number of cache lines,
// and the records a medium hands out start on a cache line, so a link
// visit touches one line.
func TestReceiverRecordLayout(t *testing.T) {
	var n nodeState
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"hear0", unsafe.Offsetof(n.hear0), unsafe.Sizeof(n.hear0)},
		{"air", unsafe.Offsetof(n.air), unsafe.Sizeof(n.air)},
		{"id", unsafe.Offsetof(n.id), unsafe.Sizeof(n.id)},
		{"channel", unsafe.Offsetof(n.channel), unsafe.Sizeof(n.channel)},
		{"listening", unsafe.Offsetof(n.listening), unsafe.Sizeof(n.listening)},
		{"down", unsafe.Offsetof(n.down), unsafe.Sizeof(n.down)},
		{"recognizes", unsafe.Offsetof(n.recognizes), unsafe.Sizeof(n.recognizes)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("nodeState.%s spans bytes %d..%d, want it inside the first 64", f.name, f.off, f.off+f.size)
		}
	}
	if size := unsafe.Sizeof(n); size%64 != 0 {
		t.Errorf("nodeState is %d bytes, want a multiple of 64", size)
	}
	_, m := benchMedium(300, 6)
	for _, n := range m.ordered {
		if at := uintptr(unsafe.Pointer(n)); at%64 != 0 {
			t.Fatalf("node %d's record starts at %#x, not on a cache line", n.id, at)
		}
	}
}

package store

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// The CP replication wire format: a compact binary framing
// (appendRPC/parseRPC) encoded into pooled buffers, so a quorum RPC puts
// no allocation on the ingest hot path.

// RPC kinds, as they appear in the frame's second byte.
const (
	kindWrite byte = iota + 1
	kindWriteAck
	kindRead
	kindReadReply
	kindAppend
	kindAppendAck
	kindRange
	kindRangeReply
	kindSync
	kindSyncReply
)

func knownKind(k byte) bool { return k >= kindWrite && k <= kindSyncReply }

// rpc is one CP message. Val carries KV payloads; Pts carries
// time-series batches (appends and range replies) in the shared
// point-stream encoding; From/To bound range requests.
type rpc struct {
	Kind  byte
	ReqID uint64
	Key   string
	Val   []byte
	Ver   uint64
	OK    bool
	Pts   []Point
	From  time.Duration
	To    time.Duration
}

// rpcMagic is the first byte of every frame; anything else is not an
// RPC and is rejected.
const rpcMagic = 0xB5

const (
	rpcFlagOK     = 1 << 0
	rpcFlagHasVal = 1 << 1
)

// appendRPC encodes m onto dst.
func appendRPC(dst []byte, m *rpc) ([]byte, error) {
	if !knownKind(m.Kind) {
		return dst, fmt.Errorf("store: unknown rpc kind code %d", m.Kind)
	}
	var flags byte
	if m.OK {
		flags |= rpcFlagOK
	}
	if m.Val != nil {
		flags |= rpcFlagHasVal
	}
	dst = append(dst, rpcMagic, m.Kind, flags)
	dst = binary.AppendUvarint(dst, m.ReqID)
	dst = binary.AppendUvarint(dst, m.Ver)
	dst = binary.AppendUvarint(dst, uint64(len(m.Key)))
	dst = append(dst, m.Key...)
	if m.Val != nil {
		dst = binary.AppendUvarint(dst, uint64(len(m.Val)))
		dst = append(dst, m.Val...)
	}
	dst = binary.AppendUvarint(dst, zigzag(int64(m.From)))
	dst = binary.AppendUvarint(dst, zigzag(int64(m.To)))
	dst = appendPoints(dst, m.Pts)
	return dst, nil
}

// parseRPC decodes a frame.
func parseRPC(data []byte) (rpc, error) {
	var m rpc
	if len(data) < 3 || data[0] != rpcMagic {
		return m, fmt.Errorf("store: not an rpc frame")
	}
	m.Kind = data[1]
	if !knownKind(m.Kind) {
		return rpc{}, fmt.Errorf("store: unknown rpc kind code %d", m.Kind)
	}
	flags := data[2]
	m.OK = flags&rpcFlagOK != 0
	r := wireReader{data: data[3:]}
	m.ReqID = r.uvarint("rpc frame")
	m.Ver = r.uvarint("rpc frame")
	m.Key = string(r.str("rpc key"))
	if flags&rpcFlagHasVal != 0 {
		m.Val = append([]byte(nil), r.str("rpc value")...)
	}
	m.From = time.Duration(unzigzag(r.uvarint("rpc frame")))
	m.To = time.Duration(unzigzag(r.uvarint("rpc frame")))
	if r.err != nil {
		return rpc{}, r.err
	}
	pts, used, err := decodePoints(nil, r.data)
	if err != nil {
		return rpc{}, err
	}
	if used != len(r.data) {
		return rpc{}, fmt.Errorf("store: %d trailing bytes in rpc frame", len(r.data)-used)
	}
	m.Pts = pts
	return m, nil
}

// rpcBufPool recycles encode buffers across sends. The replica may run
// on the wall clock (System scheduler) where sends race, so this is a
// sync.Pool rather than the kernel-local freelists of internal/netbuf.
var rpcBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// marshalRPC encodes m into a pooled buffer. The returned release func
// recycles the buffer; callers must not retain data after calling it
// (the in-memory gossip fabric and the CoAP transport both copy on
// send, see gossip.Messenger).
func marshalRPC(m *rpc) (data []byte, release func(), err error) {
	bp := rpcBufPool.Get().(*[]byte)
	buf, err := appendRPC((*bp)[:0], m)
	if err != nil {
		rpcBufPool.Put(bp)
		return nil, nil, err
	}
	*bp = buf
	return buf, func() { rpcBufPool.Put(bp) }, nil
}

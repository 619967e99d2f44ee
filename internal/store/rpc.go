package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// The CP replication wire format. The original implementation JSON-
// marshalled every quorum RPC, which put encoding/json allocations on
// the ingest hot path; the default is now a compact binary codec with
// pooled encode buffers (appendRPC/parseRPC below). JSON survives as a
// debug option (CodecJSON) — switch it on to read RPC payloads off a
// wire dump — and as the before/after baseline for the codec benchmark
// (BenchmarkRPCCodec).

// Codec selects the CP wire encoding.
type Codec uint8

// Codecs.
const (
	// CodecBinary is the default compact binary framing.
	CodecBinary Codec = iota
	// CodecJSON is the debug encoding (human-readable payloads).
	CodecJSON
)

// String names the codec.
func (c Codec) String() string {
	if c == CodecJSON {
		return "json"
	}
	return "binary"
}

// RPC kinds. The string values are the JSON wire names (and the
// pre-refactor format); the binary codec maps them to one byte.
const (
	kindWrite      = "write"
	kindWriteAck   = "write_ack"
	kindRead       = "read"
	kindReadReply  = "read_reply"
	kindAppend     = "append"
	kindAppendAck  = "append_ack"
	kindRange      = "range"
	kindRangeReply = "range_reply"
	kindSync       = "sync"
	kindSyncReply  = "sync_reply"
)

var kindCodes = map[string]byte{
	kindWrite: 1, kindWriteAck: 2, kindRead: 3, kindReadReply: 4,
	kindAppend: 5, kindAppendAck: 6, kindRange: 7, kindRangeReply: 8,
	kindSync: 9, kindSyncReply: 10,
}

var kindNames = func() map[byte]string {
	m := make(map[byte]string, len(kindCodes))
	for k, v := range kindCodes {
		m[v] = k
	}
	return m
}()

// rpc is one CP message. Val carries KV payloads; Pts carries
// time-series batches (appends and range replies) in the shared
// point-stream encoding; From/To bound range requests.
type rpc struct {
	Kind  string        `json:"kind"`
	ReqID uint64        `json:"req_id"`
	Key   string        `json:"key"`
	Val   []byte        `json:"val,omitempty"`
	Ver   uint64        `json:"ver"`
	OK    bool          `json:"ok"`
	Pts   []Point       `json:"pts,omitempty"`
	From  time.Duration `json:"from,omitempty"`
	To    time.Duration `json:"to,omitempty"`
}

// rpcMagic tags binary frames so the two codecs cannot be confused:
// 0xB5 is not a valid first byte of any JSON document.
const rpcMagic = 0xB5

const (
	rpcFlagOK     = 1 << 0
	rpcFlagHasVal = 1 << 1
)

// appendRPC encodes m onto dst in the binary framing.
func appendRPC(dst []byte, m *rpc) ([]byte, error) {
	code, ok := kindCodes[m.Kind]
	if !ok {
		return dst, fmt.Errorf("store: unknown rpc kind %q", m.Kind)
	}
	var flags byte
	if m.OK {
		flags |= rpcFlagOK
	}
	if m.Val != nil {
		flags |= rpcFlagHasVal
	}
	dst = append(dst, rpcMagic, code, flags)
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

// parseRPC decodes a binary frame.
func parseRPC(data []byte) (rpc, error) {
	var m rpc
	if len(data) < 3 || data[0] != rpcMagic {
		return m, fmt.Errorf("store: not a binary rpc frame")
	}
	kind, ok := kindNames[data[1]]
	if !ok {
		return m, fmt.Errorf("store: unknown rpc kind code %d", data[1])
	}
	m.Kind = kind
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

// marshalRPC encodes m under the selected codec. The returned release
// func recycles the buffer; callers must not retain data after calling
// it (the in-memory gossip fabric and the CoAP transport both copy on
// send, see gossip.Messenger).
func marshalRPC(c Codec, m *rpc) (data []byte, release func(), err error) {
	if c == CodecJSON {
		data, err = json.Marshal(m)
		return data, func() {}, err
	}
	bp := rpcBufPool.Get().(*[]byte)
	buf, err := appendRPC((*bp)[:0], m)
	if err != nil {
		rpcBufPool.Put(bp)
		return nil, nil, err
	}
	*bp = buf
	return buf, func() { rpcBufPool.Put(bp) }, nil
}

// unmarshalRPC decodes either framing: binary frames are tagged with
// rpcMagic, anything else is treated as the JSON debug encoding — so a
// cluster can be flipped to CodecJSON for a debug session without a
// flag-day (replicas accept both at all times).
func unmarshalRPC(data []byte) (rpc, error) {
	if len(data) > 0 && data[0] == rpcMagic {
		return parseRPC(data)
	}
	var m rpc
	if err := json.Unmarshal(data, &m); err != nil {
		return rpc{}, err
	}
	return m, nil
}

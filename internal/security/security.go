// Package security implements the link/application-layer protections
// §V-E observes are specified but rarely deployed on constrained devices:
// pre-shared-key session establishment, AEAD frame protection, and
// anti-replay windows. The experiment E11 quantifies exactly what the
// paper says operators avoid paying: bytes on air, latency, and energy.
//
// Substitution note (DESIGN.md): 802.15.4 security suites use AES-CCM;
// the Go standard library ships AES-GCM, an AEAD of the same family and
// interface (nonce, tag, AAD). Framing overhead is configured to match
// CCM-8-class framing as closely as GCM allows (12-byte minimum tag).
package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"iiotds/internal/netbuf"
)

// Errors returned by Open.
var (
	ErrAuth     = errors.New("security: authentication failed")
	ErrReplay   = errors.New("security: replayed frame")
	ErrTooShort = errors.New("security: frame too short")
	ErrNoKey    = errors.New("security: unknown key")
)

// tagSize is the AEAD tag length (GCM's minimum, closest to CCM-8-class
// framing available in the stdlib).
const tagSize = 12

// counterLen is the explicit per-frame counter (builds the nonce and
// drives anti-replay).
const counterLen = 8

// headerLen is keyID(1) + counter(8).
const headerLen = 1 + counterLen

// Overhead returns the per-frame byte cost of protection.
func Overhead() int { return headerLen + tagSize }

// KeyStore holds symmetric keys by key ID.
type KeyStore struct {
	mu   sync.Mutex
	keys map[uint8][]byte
}

// NewKeyStore returns an empty key store.
func NewKeyStore() *KeyStore {
	return &KeyStore{keys: make(map[uint8][]byte)}
}

// Set installs a 16- or 32-byte AES key under id.
func (s *KeyStore) Set(id uint8, key []byte) error {
	if len(key) != 16 && len(key) != 32 {
		return fmt.Errorf("security: key must be 16 or 32 bytes, got %d", len(key))
	}
	s.mu.Lock()
	s.keys[id] = netbuf.CloneBytes(key)
	s.mu.Unlock()
	return nil
}

// Get returns the key under id.
func (s *KeyStore) Get(id uint8) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.keys[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoKey, id)
	}
	return netbuf.CloneBytes(k), nil
}

// ReplayWindow is a sliding-window anti-replay filter (RFC 6479 style):
// it accepts each counter at most once and rejects counters older than
// the window.
type ReplayWindow struct {
	top    uint64 // highest counter accepted
	bitmap uint64 // bit i set = (top - i) seen
	seeded bool
}

// windowSize is how far behind the highest counter a frame may trail.
const windowSize = 64

// Check reports whether ctr is fresh, and records it if so.
func (w *ReplayWindow) Check(ctr uint64) bool {
	if !w.seeded {
		w.seeded = true
		w.top = ctr
		w.bitmap = 1
		return true
	}
	switch {
	case ctr > w.top:
		shift := ctr - w.top
		if shift >= windowSize {
			w.bitmap = 1
		} else {
			w.bitmap = w.bitmap<<shift | 1
		}
		w.top = ctr
		return true
	case w.top-ctr >= windowSize:
		return false // too old to validate
	default:
		bit := uint64(1) << (w.top - ctr)
		if w.bitmap&bit != 0 {
			return false // already seen
		}
		w.bitmap |= bit
		return true
	}
}

// Channel protects frames in one direction of a session. Create one per
// direction with the same session key.
type Channel struct {
	mu     sync.Mutex
	keyID  uint8
	aead   cipher.AEAD
	ctr    uint64
	replay ReplayWindow
	nbuf   [12]byte // nonce scratch for the in-place buffer paths

	// SealedFrames / RejectedFrames instrument E11.
	SealedFrames   uint64
	RejectedFrames uint64
}

// NewChannel builds a channel from the key stored under keyID.
func NewChannel(ks *KeyStore, keyID uint8) (*Channel, error) {
	key, err := ks.Get(keyID)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	aead, err := cipher.NewGCMWithTagSize(block, tagSize)
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	return &Channel{keyID: keyID, aead: aead}, nil
}

// nonce builds the 12-byte nonce from the frame counter.
func (c *Channel) nonce(ctr uint64) []byte {
	n := make([]byte, 12)
	binary.BigEndian.PutUint64(n[4:], ctr)
	return n
}

// Seal protects plaintext with optional additional authenticated data,
// returning the on-air frame: [keyID][ctr:8][ciphertext||tag].
func (c *Channel) Seal(plaintext, aad []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctr++
	c.SealedFrames++
	out := make([]byte, headerLen, headerLen+len(plaintext)+tagSize)
	out[0] = c.keyID
	binary.BigEndian.PutUint64(out[1:headerLen], c.ctr)
	return c.aead.Seal(out, c.nonce(c.ctr), plaintext, aad)
}

// SealBuffer protects b's contents in place: the plaintext is encrypted
// where it sits, the tag grows into the tailroom, and the
// [keyID][ctr:8] header goes into the headroom. The resulting frame is
// byte-identical to Seal's output with no intermediate copy.
func (c *Channel) SealBuffer(b *netbuf.Buffer, aad []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctr++
	c.SealedFrames++
	// Reserve the tag space first: Extend may reallocate, so the
	// plaintext view is taken after.
	n := b.Len()
	b.Extend(tagSize)
	pt := b.Bytes()[:n]
	binary.BigEndian.PutUint64(c.nbuf[4:], c.ctr)
	c.aead.Seal(pt[:0], c.nbuf[:], pt, aad)
	h := b.Prepend(headerLen)
	h[0] = c.keyID
	binary.BigEndian.PutUint64(h[1:headerLen], c.ctr)
}

// Open verifies and decrypts a frame, enforcing key ID, authenticity,
// and replay freshness.
func (c *Channel) Open(frame, aad []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(frame) < headerLen+tagSize {
		c.RejectedFrames++
		return nil, ErrTooShort
	}
	if frame[0] != c.keyID {
		c.RejectedFrames++
		return nil, fmt.Errorf("%w: id %d", ErrNoKey, frame[0])
	}
	ctr := binary.BigEndian.Uint64(frame[1:headerLen])
	plain, err := c.aead.Open(nil, c.nonce(ctr), frame[headerLen:], aad)
	if err != nil {
		c.RejectedFrames++
		return nil, ErrAuth
	}
	// Replay check after authentication: only genuine frames may
	// advance the window.
	if !c.replay.Check(ctr) {
		c.RejectedFrames++
		return nil, ErrReplay
	}
	return plain, nil
}

// DeriveSessionKey computes a per-session key from a pre-shared key and
// both parties' nonces (HKDF-style single HMAC-SHA256 extract+expand,
// truncated to 16 bytes for AES-128-class devices).
func DeriveSessionKey(psk, nonceA, nonceB []byte) []byte {
	mac := hmac.New(sha256.New, psk)
	mac.Write([]byte("iiotds-session-v1"))
	mac.Write(nonceA)
	mac.Write(nonceB)
	return mac.Sum(nil)[:16]
}

// Handshake is the two-message PSK session establishment: the initiator
// sends nonceA, the responder replies with nonceB and both derive the
// session key. It is deliberately minimal — the cost being measured, not
// the ceremony.
type Handshake struct {
	psk    []byte
	nonceA []byte
	nonceB []byte
}

// NewHandshake starts a handshake with the given pre-shared key.
func NewHandshake(psk []byte) *Handshake { return &Handshake{psk: netbuf.CloneBytes(psk)} }

// Initiate produces message 1 (the initiator nonce).
func (h *Handshake) Initiate(nonceA []byte) []byte {
	h.nonceA = netbuf.CloneBytes(nonceA)
	return h.nonceA
}

// Respond consumes message 1 and produces message 2; the responder's
// session key is ready afterwards.
func (h *Handshake) Respond(msg1, nonceB []byte) (msg2 []byte, session []byte) {
	h.nonceA = netbuf.CloneBytes(msg1)
	h.nonceB = netbuf.CloneBytes(nonceB)
	return h.nonceB, DeriveSessionKey(h.psk, h.nonceA, h.nonceB)
}

// Complete consumes message 2 on the initiator side and returns the
// session key.
func (h *Handshake) Complete(msg2 []byte) []byte {
	h.nonceB = netbuf.CloneBytes(msg2)
	return DeriveSessionKey(h.psk, h.nonceA, h.nonceB)
}

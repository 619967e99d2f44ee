// Package adapter implements protocol adapters between heterogeneous
// (including legacy) field-device protocols and the canonical device
// model. Three emulated protocol families cover the heterogeneity §III
// describes: a Modbus-like register protocol (industrial legacy), a
// BLE-GATT-like TLV protocol (consumer-grade radio peripherals), and a
// proprietary ASCII-TLV vendor protocol. A family is a point type and a
// codec of four wire-format functions (its own file); everything else —
// model tables, the checks in front of a command, observations, and the
// device emulator that exercises the adapter against realistic frames —
// is the shared chassis in family.go.
package adapter

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"iiotds/internal/registry"
)

// Adapter translates one protocol family to and from the canonical model.
type Adapter interface {
	// Protocol returns the protocol name this adapter handles.
	Protocol() string
	// Decode turns a raw device frame into canonical observations.
	Decode(dev *registry.Device, raw []byte, at time.Duration) ([]registry.Observation, error)
	// EncodeCommand turns a canonical command into a raw device frame.
	EncodeCommand(dev *registry.Device, cmd registry.Command) ([]byte, error)
}

// Common errors.
var (
	ErrUnknownCapability = errors.New("adapter: unknown capability")
	ErrBadFrame          = errors.New("adapter: malformed frame")
	ErrWrongProtocol     = errors.New("adapter: device/protocol mismatch")
	ErrBadValue          = errors.New("adapter: value not representable")
)

// Mux routes devices to their protocol adapters: the O(M) integration
// point (one adapter per family, any device to any consumer).
type Mux struct {
	adapters map[string]Adapter
}

// NewMux returns a Mux with the given adapters installed.
func NewMux(adapters ...Adapter) *Mux {
	m := &Mux{adapters: make(map[string]Adapter)}
	for _, a := range adapters {
		m.adapters[a.Protocol()] = a
	}
	return m
}

// Protocols returns the registered protocol names, sorted.
func (m *Mux) Protocols() []string {
	out := make([]string, 0, len(m.adapters))
	for p := range m.adapters {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Decode dispatches to the device's protocol adapter.
func (m *Mux) Decode(dev *registry.Device, raw []byte, at time.Duration) ([]registry.Observation, error) {
	a, ok := m.adapters[dev.Protocol]
	if !ok {
		return nil, fmt.Errorf("adapter: no adapter for protocol %q", dev.Protocol)
	}
	return a.Decode(dev, raw, at)
}

// EncodeCommand dispatches to the device's protocol adapter.
func (m *Mux) EncodeCommand(dev *registry.Device, cmd registry.Command) ([]byte, error) {
	a, ok := m.adapters[dev.Protocol]
	if !ok {
		return nil, fmt.Errorf("adapter: no adapter for protocol %q", dev.Protocol)
	}
	return a.EncodeCommand(dev, cmd)
}

// sortObs orders observations by capability name for deterministic
// output regardless of map iteration order.
func sortObs(obs []registry.Observation) {
	sort.Slice(obs, func(i, j int) bool { return obs[i].Cap < obs[j].Cap })
}

// Emulator is a synthetic field device: it renders its internal state as
// protocol frames and applies raw command frames, exactly as the physical
// device would.
type Emulator interface {
	// Device returns the canonical description.
	Device() *registry.Device
	// Frame renders the device's current state as a protocol frame.
	Frame() []byte
	// Apply executes a raw command frame against the device state.
	Apply(raw []byte) error
	// State reads back a capability's current value (for verification).
	State(cap string) (float64, bool)
	// SetState sets a capability's value (simulating the physical world).
	SetState(cap string, v float64)
}

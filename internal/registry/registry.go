// Package registry defines the canonical device model of the middleware
// — the neutral vocabulary every protocol adapter translates into — and
// the device registry that tracks what is deployed where. This is the
// O(M) integration pivot of §III: M protocol families need M adapters to
// the canonical model instead of M² pairwise translators.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DeviceID uniquely names a device.
type DeviceID string

// CapabilityKind distinguishes sensing from actuation.
type CapabilityKind int

// Capability kinds.
const (
	KindSensor CapabilityKind = iota
	KindActuator
)

// String names the kind.
func (k CapabilityKind) String() string {
	if k == KindSensor {
		return "sensor"
	}
	return "actuator"
}

// Capability is one named measurement or control point of a device.
type Capability struct {
	Name string
	Kind CapabilityKind
	Unit string
}

// Device is the canonical description of a field device.
type Device struct {
	ID       DeviceID
	Vendor   string
	Model    string
	Protocol string // adapter protocol name ("modbus", "blegatt", ...)
	Tenant   string // administrative domain (§IV-C)
	Caps     []Capability
}

// Observation is a canonical sensor reading.
type Observation struct {
	Device DeviceID
	Cap    string
	Value  float64
	Unit   string
	At     time.Duration
}

// Topic returns the bus topic for this observation.
func (o Observation) Topic() string {
	return fmt.Sprintf("obs/%s/%s", o.Device, o.Cap)
}

// Command is a canonical actuation request.
type Command struct {
	Device DeviceID
	Cap    string
	Value  float64
}

// ErrDuplicate is Register's answer to an ID already registered.
var ErrDuplicate = errors.New("registry: device already registered")

// Registry tracks registered devices. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	devices map[DeviceID]*Device
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{devices: make(map[DeviceID]*Device)}
}

// Register adds a device.
func (r *Registry) Register(d *Device) error {
	if d.ID == "" {
		return errors.New("registry: empty device ID")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.devices[d.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, d.ID)
	}
	r.devices[d.ID] = d
	return nil
}

// All returns all devices sorted by ID.
func (r *Registry) All() []*Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Device, 0, len(r.devices))
	for _, d := range r.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

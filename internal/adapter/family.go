package adapter

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"iiotds/internal/registry"
)

// pointInfo is what the chassis needs to know about one mapping entry,
// whatever its family calls it (register, characteristic, tag).
type pointInfo struct {
	id       uint16 // wire id; unique within a model
	unit     string
	writable bool
	lo, hi   float64 // command values the family's encoding can represent
}

// point is a family's mapping-entry type.
type point interface{ info() pointInfo }

// reading is one (wire id, value) pair parsed from a frame.
type reading struct {
	id uint16
	v  float64
}

// slot is one mapped point with its current emulated value.
type slot[P point] struct {
	pt P
	v  float64
}

// codec is all that differs between protocol families besides the point
// type: two words for messages and four wire-format functions. lookup
// resolves a wire id against the device's model; ids it does not know
// are foreign and skipped.
type codec[P point] struct {
	protocol string // Adapter.Protocol
	mapNoun  string // "no <mapNoun> map for model"
	idFmt    string // a wire id in messages, e.g. "register %d"

	// decode parses a report frame into readings of known points.
	decode func(raw []byte, lookup func(id uint16) (P, bool)) ([]reading, error)
	// encode renders a write frame; v is finite and within pt's range.
	encode func(pt P, v float64) []byte
	// render is decode's inverse: a report frame carrying every slot
	// (given in capability-name order).
	render func(state []slot[P]) []byte
	// parseWrite is encode's inverse. The id is returned even when
	// lookup does not know it, so the chassis can say so.
	parseWrite func(raw []byte, lookup func(id uint16) (P, bool)) (reading, error)
}

// table is one model's point map with its wire-id index.
type table[P point] struct {
	byName map[string]P
	names  []string          // sorted
	byID   map[uint16]string // on a duplicate id the alphabetically first capability wins
}

func newTable[P point](m map[string]P) table[P] {
	t := table[P]{byName: m, byID: make(map[uint16]string, len(m))}
	for name := range m {
		t.names = append(t.names, name)
	}
	sort.Strings(t.names)
	for i := len(t.names) - 1; i >= 0; i-- {
		t.byID[m[t.names[i]].info().id] = t.names[i]
	}
	return t
}

func (t table[P]) lookup(id uint16) (P, bool) {
	name, ok := t.byID[id]
	return t.byName[name], ok
}

// family is the adapter chassis every protocol family instantiates: the
// per-model point tables, the device/protocol/model checks, the gate in
// front of a command, and observation construction.
type family[P point] struct {
	c *codec[P]

	mu     sync.Mutex
	models map[string]table[P]
}

func newFamily[P point](c *codec[P]) *family[P] {
	return &family[P]{c: c, models: make(map[string]table[P])}
}

// RegisterModel installs the point map for a device model, as a real
// integration would configure from device datasheets.
func (f *family[P]) RegisterModel(model string, m map[string]P) {
	t := newTable(m)
	f.mu.Lock()
	f.models[model] = t
	f.mu.Unlock()
}

// Protocol implements Adapter.
func (f *family[P]) Protocol() string { return f.c.protocol }

func (f *family[P]) tableFor(dev *registry.Device) (table[P], error) {
	if dev.Protocol != f.c.protocol {
		return table[P]{}, ErrWrongProtocol
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.models[dev.Model]
	if !ok {
		return t, fmt.Errorf("adapter: no %s map for model %q", f.c.mapNoun, dev.Model)
	}
	return t, nil
}

// Decode implements Adapter.
func (f *family[P]) Decode(dev *registry.Device, raw []byte, at time.Duration) ([]registry.Observation, error) {
	t, err := f.tableFor(dev)
	if err != nil {
		return nil, err
	}
	rs, err := f.c.decode(raw, t.lookup)
	if err != nil {
		return nil, err
	}
	var obs []registry.Observation
	for _, r := range rs {
		name := t.byID[r.id]
		obs = append(obs, registry.Observation{
			Device: dev.ID,
			Cap:    name,
			Value:  r.v,
			Unit:   t.byName[name].info().unit,
			At:     at,
		})
	}
	sortObs(obs)
	return obs, nil
}

// EncodeCommand implements Adapter. A command the device would read as a
// different one is refused here, once for every family: the capability
// must exist and be writable, and the value must be finite and within
// what the family's encoding can carry.
func (f *family[P]) EncodeCommand(dev *registry.Device, cmd registry.Command) ([]byte, error) {
	t, err := f.tableFor(dev)
	if err != nil {
		return nil, err
	}
	pt, ok := t.byName[cmd.Cap]
	in := pt.info()
	if !ok || !in.writable {
		return nil, fmt.Errorf("%w: %s/%s", ErrUnknownCapability, dev.ID, cmd.Cap)
	}
	if math.IsNaN(cmd.Value) || cmd.Value < in.lo || cmd.Value > in.hi {
		return nil, fmt.Errorf("%w: %s/%s = %v (range %v..%v)", ErrBadValue, dev.ID, cmd.Cap, cmd.Value, in.lo, in.hi)
	}
	return f.c.encode(pt, cmd.Value), nil
}

// emulator is the one synthetic field device; a family's codec gives it
// its wire format.
type emulator[P point] struct {
	c *codec[P]
	t table[P]

	mu    sync.Mutex
	state map[string]float64
}

func newEmulator[P point](c *codec[P], m map[string]P) *emulator[P] {
	return &emulator[P]{c: c, t: newTable(m), state: make(map[string]float64)}
}

// Frame implements Emulator.
func (e *emulator[P]) Frame() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	slots := make([]slot[P], len(e.t.names))
	for i, name := range e.t.names {
		slots[i] = slot[P]{e.t.byName[name], e.state[name]}
	}
	return e.c.render(slots)
}

// Apply implements Emulator.
func (e *emulator[P]) Apply(raw []byte) error {
	r, err := e.c.parseWrite(raw, e.t.lookup)
	if err != nil {
		return err
	}
	name, ok := e.t.byID[r.id]
	if !ok {
		return fmt.Errorf("adapter: unknown "+e.c.idFmt, r.id)
	}
	if !e.t.byName[name].info().writable {
		return fmt.Errorf("adapter: "+e.c.idFmt+" read-only", r.id)
	}
	e.mu.Lock()
	e.state[name] = r.v
	e.mu.Unlock()
	return nil
}

// State implements Emulator.
func (e *emulator[P]) State(cap string) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.state[cap]
	return v, ok
}

// SetState implements Emulator.
func (e *emulator[P]) SetState(cap string, v float64) {
	e.mu.Lock()
	e.state[cap] = v
	e.mu.Unlock()
}

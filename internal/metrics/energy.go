package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// RadioState enumerates the power states of a low-power wireless node.
// Every packet on the simulated medium pays energy through these states,
// so the paper's energy claims (duty-cycling, funneling drain, detection
// cost) are measured rather than asserted.
type RadioState int

const (
	// StateSleep is the radio off, MCU sleeping.
	StateSleep RadioState = iota
	// StateListen is idle listening: radio on, no frame in the air.
	StateListen
	// StateRx is actively receiving a frame.
	StateRx
	// StateTx is actively transmitting a frame.
	StateTx
	// StateCPU is MCU-active processing with the radio off.
	StateCPU
	numStates
)

// PowerProfile gives the power draw, in watts, of each radio state.
type PowerProfile struct {
	Sleep  float64
	Listen float64
	Rx     float64
	Tx     float64
	CPU    float64
}

// DefaultPowerProfile models a CC2420-class IEEE 802.15.4 transceiver with
// a low-power MCU at 3 V: the platform family the paper's sensing-and-
// actuation layer discussion assumes.
func DefaultPowerProfile() PowerProfile {
	return PowerProfile{
		Sleep:  0.00006, // 20 µA deep sleep
		Listen: 0.0564,  // 18.8 mA radio on, idle
		Rx:     0.0564,  // 18.8 mA receive
		Tx:     0.0522,  // 17.4 mA transmit at 0 dBm
		CPU:    0.0054,  // 1.8 mA MCU active
	}
}

func (p PowerProfile) watts(s RadioState) float64 {
	switch s {
	case StateSleep:
		return p.Sleep
	case StateListen:
		return p.Listen
	case StateRx:
		return p.Rx
	case StateTx:
		return p.Tx
	case StateCPU:
		return p.CPU
	default:
		return 0
	}
}

// EnergyLedger accumulates per-state time for one node. Durations are
// exact integer nanoseconds, and joules are derived on read as watts x
// total time, which is both cheaper and numerically tighter than
// accumulating per-frame float products.
//
// A ledger has one writer: the event callbacks of the kernel its node
// lives on. Its fields are therefore plain, and a reader on another
// goroutine must be ordered after that kernel's events (a striped
// fleet's barrier does this). Receive and transmit airtime — one charge
// per receiver per frame — does not come through Spend at all: the
// radio medium adds it to an Airtime kept on the node's own radio state,
// and a ledger linked to that tally (Link) adds it in on read.
type EnergyLedger struct {
	profile PowerProfile
	dur     [numStates]time.Duration
	air     *Airtime
}

// Airtime is a node's receive and transmit time as its radio medium
// tallies it, inline on the fan-out.
type Airtime struct {
	Rx, Tx time.Duration
}

// NewEnergyLedger returns a ledger using the given power profile.
func NewEnergyLedger(p PowerProfile) *EnergyLedger {
	return &EnergyLedger{profile: p}
}

// Spend charges d of time in state s.
func (l *EnergyLedger) Spend(s RadioState, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: EnergyLedger.Spend negative duration %v", d))
	}
	l.dur[s] += d
}

// Link makes the ledger add a's receive and transmit time to its own on
// every read.
func (l *EnergyLedger) Link(a *Airtime) { l.air = a }

// Joules returns the energy spent in state s.
func (l *EnergyLedger) Joules(s RadioState) float64 {
	return l.profile.watts(s) * l.Duration(s).Seconds()
}

// TotalJoules returns the energy spent across all states.
func (l *EnergyLedger) TotalJoules() float64 {
	var t float64
	for s := RadioState(0); s < numStates; s++ {
		t += l.Joules(s)
	}
	return t
}

// Duration returns the accumulated time in state s.
func (l *EnergyLedger) Duration(s RadioState) time.Duration {
	d := l.dur[s]
	if l.air != nil {
		switch s {
		case StateRx:
			d += l.air.Rx
		case StateTx:
			d += l.air.Tx
		}
	}
	return d
}

// RadioOn returns the accumulated time with the radio powered
// (listen + rx + tx) — the quantity duty-cycling minimizes.
func (l *EnergyLedger) RadioOn() time.Duration {
	return l.Duration(StateListen) + l.Duration(StateRx) + l.Duration(StateTx)
}

// EnergySet tracks ledgers for a population of nodes keyed by an integer
// node ID, and answers fleet-level questions (max drain, mean drain).
type EnergySet struct {
	mu      sync.Mutex
	profile PowerProfile
	ledgers map[int]*EnergyLedger
}

// NewEnergySet returns an empty set whose ledgers use profile p.
func NewEnergySet(p PowerProfile) *EnergySet {
	return &EnergySet{profile: p, ledgers: make(map[int]*EnergyLedger)}
}

// Ledger returns the ledger for node id, creating it if needed.
func (s *EnergySet) Ledger(id int) *EnergyLedger {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.ledgers[id]
	if !ok {
		l = NewEnergyLedger(s.profile)
		s.ledgers[id] = l
	}
	return l
}

// eachTotalLocked visits every node's total drain in ascending node-ID
// order: map order would make the low bits of a float folded over the
// set differ from run to run.
func (s *EnergySet) eachTotalLocked(visit func(id int, joules float64)) {
	ids := make([]int, 0, len(s.ledgers))
	for i := range s.ledgers {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	for _, i := range ids {
		visit(i, s.ledgers[i].TotalJoules())
	}
}

// MaxTotalJoules returns the worst per-node energy drain and the node that
// incurred it; the network's lifetime is governed by this node.
func (s *EnergySet) MaxTotalJoules() (id int, joules float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := true
	s.eachTotalLocked(func(i int, j float64) {
		if first || j > joules {
			id, joules, first = i, j, false
		}
	})
	return id, joules
}

// MeanTotalJoules returns the mean per-node energy drain, or 0 when empty.
func (s *EnergySet) MeanTotalJoules() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ledgers) == 0 {
		return 0
	}
	var sum float64
	s.eachTotalLocked(func(_ int, j float64) { sum += j })
	return sum / float64(len(s.ledgers))
}

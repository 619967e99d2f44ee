package gossip

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/fault"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// mediumAdapter lets a fault.Injector drive partitions on the in-memory
// gossip fabric: it implements fault.MediumCtl by translating the
// injector's radio-level operations (link filters over radio.NodeID)
// into Network partition groups over port names. Node i maps to
// names[i]. Link PRR degradation has no analogue on the lossless fabric
// and is ignored.
type mediumAdapter struct {
	net   *Network
	names []string
	down  map[radio.NodeID]bool
	filt  radio.LinkFilter
}

func newMediumAdapter(net *Network, names []string) *mediumAdapter {
	return &mediumAdapter{net: net, names: names, down: make(map[radio.NodeID]bool)}
}

func (m *mediumAdapter) SetDown(id radio.NodeID, down bool) {
	m.down[id] = down
	m.apply()
}

func (m *mediumAdapter) SetLinkFilter(f radio.LinkFilter) {
	m.filt = f
	m.apply()
}

func (m *mediumAdapter) SetLinkPRR(from, to radio.NodeID, prr float64) {}

// apply recomputes the Network's partition groups from the current
// filter and down set. The injector's filters are group-membership
// predicates (symmetric and transitive), so connected components are
// exact; a down node is isolated in a singleton group.
func (m *mediumAdapter) apply() {
	anyDown := false
	for _, d := range m.down {
		anyDown = anyDown || d
	}
	if m.filt == nil && !anyDown {
		m.net.Heal()
		return
	}
	connected := func(a, b radio.NodeID) bool {
		if m.down[a] || m.down[b] {
			return false
		}
		return m.filt == nil || (m.filt(a, b) && m.filt(b, a))
	}
	var groups [][]string
	assigned := make([]bool, len(m.names))
	for i := range m.names {
		if assigned[i] {
			continue
		}
		group := []string{m.names[i]}
		assigned[i] = true
		for j := i + 1; j < len(m.names); j++ {
			if !assigned[j] && connected(radio.NodeID(i), radio.NodeID(j)) {
				group = append(group, m.names[j])
				assigned[j] = true
			}
		}
		groups = append(groups, group)
	}
	m.net.SetPartition(groups...)
}

var _ fault.MediumCtl = (*mediumAdapter)(nil)

// logState is a grow-only per-origin append-log CRDT that counts every
// element it adopts from remote snapshots, so a duplicate delivery
// (re-applying an element that was already merged) is observable as
// adopted > written.
type logState struct {
	logs    map[string][]int
	adopted int
	askedBy []string // the peer each Delta was asked for, in order
}

func newLogState() *logState { return &logState{logs: make(map[string][]int)} }

func (s *logState) write(origin string, v int) { s.logs[origin] = append(s.logs[origin], v) }

// Summary is the per-origin log lengths.
func (s *logState) Summary(dst []byte) []byte {
	lens := make(map[string]int, len(s.logs))
	for origin, log := range s.logs {
		lens[origin] = len(log)
	}
	data, _ := json.Marshal(lens)
	return append(dst, data...)
}

// logDelta is the suffix of one origin's log starting at element From.
type logDelta struct {
	From int
	Log  []int
}

func (s *logState) Delta(dst []byte, peer string, summary []byte) ([]byte, error) {
	var lens map[string]int
	if err := json.Unmarshal(summary, &lens); err != nil {
		return dst, err
	}
	s.askedBy = append(s.askedBy, peer)
	delta := make(map[string]logDelta)
	for origin, log := range s.logs {
		if have := lens[origin]; have < len(log) {
			delta[origin] = logDelta{From: have, Log: log[have:]}
		}
	}
	if len(delta) == 0 {
		return dst, nil
	}
	data, err := json.Marshal(delta)
	return append(dst, data...), err
}

func (s *logState) Merge(remote []byte) error {
	var delta map[string]logDelta
	if err := json.Unmarshal(remote, &delta); err != nil {
		return err
	}
	for origin, d := range delta {
		if skip := len(s.logs[origin]) - d.From; skip >= 0 && skip < len(d.Log) {
			s.logs[origin] = append(s.logs[origin], d.Log[skip:]...)
			s.adopted += len(d.Log) - skip
		}
	}
	return nil
}

// TestInjectorPartitionHealGossip drives a gossip partition through
// fault.Injector (the same injector the deployment layer uses) and
// checks that anti-entropy stalls across the cut, resumes after the
// scheduled heal, and delivers every update exactly once.
func TestInjectorPartitionHealGossip(t *testing.T) {
	k := sim.New(11)
	net := NewNetwork()
	names := []string{"a", "b", "c", "d"}
	states := make([]*logState, len(names))
	engines := make([]*Engine, len(names))
	for i, name := range names {
		states[i] = newLogState()
		engines[i] = New(net.Attach(name), clock.Kernel{K: k}, states[i],
			Config{Interval: time.Second, Seed: int64(i + 1)})
		engines[i].Start()
	}
	inj := fault.NewInjector(k, newMediumAdapter(net, names), nil, nil)

	// Cut {a,b} | {c,d} at 5s, write on both sides at 6s, heal at 30s.
	k.At(5*time.Second, func() { inj.Partition([]radio.NodeID{0, 1}, []radio.NodeID{2, 3}) })
	k.At(sim.Time(6*time.Second), func() {
		states[0].write("a", 1)
		states[2].write("c", 100)
	})
	k.At(30*time.Second, inj.Heal)

	k.RunFor(20 * time.Second) // t = 20s: partitioned
	if !inj.Partitioned() {
		t.Fatal("injector reports no partition")
	}
	if got := len(states[1].logs["a"]); got != 1 {
		t.Fatalf("same-side replica b missing a's write: %d", got)
	}
	if got := len(states[1].logs["c"]); got != 0 {
		t.Fatalf("partition leaked c's write to b: %d", got)
	}
	if net.Dropped == 0 {
		t.Fatal("no gossip dropped by the injected partition")
	}
	stalled := engines[0].RoundsRun
	if stalled == 0 {
		t.Fatal("no rounds ran before the cut")
	}

	k.RunFor(40 * time.Second) // t = 60s: healed at 30s, anti-entropy resumed
	if inj.Partitioned() {
		t.Fatal("injector still reports a partition after the heal")
	}
	if engines[0].RoundsRun <= stalled {
		t.Fatal("anti-entropy did not resume after heal")
	}
	for i, s := range states {
		if len(s.logs["a"]) != 1 || len(s.logs["c"]) != 1 {
			t.Fatalf("replica %s did not converge: %v", names[i], s.logs)
		}
		// Exactly-once: each replica adopts each foreign write once —
		// repeated gossip rounds must not re-apply merged elements.
		want := 2
		if i == 0 || i == 2 {
			want = 1 // writers adopt only the other side's element
		}
		if s.adopted != want {
			t.Fatalf("replica %s adopted %d elements, want %d (duplicate delivery)",
				names[i], s.adopted, want)
		}
	}
}

// TestInjectorCrashIsolatesReplica maps the injector's node-down fault
// onto the fabric: a crashed replica stops receiving gossip, and a
// recovered one catches up.
func TestInjectorCrashIsolatesReplica(t *testing.T) {
	k := sim.New(12)
	net := NewNetwork()
	names := []string{"a", "b", "c"}
	states := make([]*logState, len(names))
	for i, name := range names {
		states[i] = newLogState()
		New(net.Attach(name), clock.Kernel{K: k}, states[i],
			Config{Interval: time.Second, Seed: int64(i + 1)}).Start()
	}
	inj := fault.NewInjector(k, newMediumAdapter(net, names), nil, nil)

	k.At(2*time.Second, func() { inj.Crash(2) }) // c goes down
	k.At(sim.Time(3*time.Second), func() { states[0].write("a", 7) })
	k.RunFor(15 * time.Second)
	if got := len(states[2].logs["a"]); got != 0 {
		t.Fatalf("crashed replica c received gossip: %d", got)
	}
	if got := len(states[1].logs["a"]); got != 1 {
		t.Fatalf("healthy replica b missed the write: %d", got)
	}
	inj.Recover(2)
	k.RunFor(15 * time.Second)
	if got := len(states[2].logs["a"]); got != 1 {
		t.Fatalf("recovered replica c did not catch up: %d", got)
	}
}

// recordingMessenger captures the exact peer-selection sequence an
// engine produces, with no inbound traffic to perturb the RNG.
type recordingMessenger struct {
	self    string
	peers   []string
	targets []string
}

func (m *recordingMessenger) Send(peer string, data []byte) error {
	m.targets = append(m.targets, peer)
	return nil
}
func (m *recordingMessenger) SetReceiver(fn func(from string, data []byte)) {}
func (m *recordingMessenger) Self() string                                  { return m.self }
func (m *recordingMessenger) Peers() []string {
	return append([]string(nil), m.peers...)
}

// peerSequence runs one engine for rounds seconds of virtual time and
// returns the peers it pushed to, in order.
func peerSequence(seed int64, secs int) []string {
	k := sim.New(seed + 99)
	m := &recordingMessenger{self: "a", peers: []string{"b", "c", "d", "e"}}
	New(m, clock.Kernel{K: k}, newLogState(), Config{Interval: time.Second, Seed: seed}).Start()
	k.RunFor(time.Duration(secs) * time.Second)
	return m.targets
}

// TestPeerSelectionDeterministic pins the peer-selection stream at two
// seeds: the sequence is a function of (seed, round count) alone, so
// any change to the RNG draw order — jitter first, then shuffle — or to
// the shuffle itself shows up as a diff against these golden sequences.
// Regenerate with: go test -run TestPeerSelectionDeterministic -v
// (the failure message prints the observed sequence).
func TestPeerSelectionDeterministic(t *testing.T) {
	golden := map[int64][]string{
		1:  nil, // filled below from pinned literals
		42: nil,
	}
	golden[1] = goldenSeed1
	golden[42] = goldenSeed42
	for seed, want := range golden {
		got := peerSequence(seed, 12)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d peer sequence drifted:\n got  %s\n want %s",
				seed, fmt.Sprintf("%q", got), fmt.Sprintf("%q", want))
		}
		again := peerSequence(seed, 12)
		if !reflect.DeepEqual(got, again) {
			t.Errorf("seed %d not reproducible across runs", seed)
		}
	}
}

// Pinned peer-selection sequences (12 virtual seconds, 4 peers, one
// peer per round): the regression contract for the engine's RNG draw order.
var goldenSeed1 = []string{"d", "c", "b", "e", "e", "b", "e", "e", "c", "c", "e"}

var goldenSeed42 = []string{"d", "e", "c", "d", "b", "e", "c", "e", "d", "d", "c"}

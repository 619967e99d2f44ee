package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/gossip"
	"iiotds/internal/sim"
)

// wholeState is the anti-entropy the delta protocol replaced — every
// exchange ships a replica's entire series state and the receiver
// adopts, per series and origin, the suffix it does not hold — kept as
// the reference the delta path must agree with.
type wholeState struct {
	logs map[string]map[string][]Point
}

func newWholeState() *wholeState {
	return &wholeState{logs: make(map[string]map[string][]Point)}
}

func (w *wholeState) appendLocal(origin, series string, pts []Point) {
	if w.logs[series] == nil {
		w.logs[series] = make(map[string][]Point)
	}
	w.logs[series][origin] = append(w.logs[series][origin], pts...)
}

func (w *wholeState) merge(remote *wholeState) {
	for series, origins := range remote.logs {
		for origin, pts := range origins {
			if local := w.logs[series][origin]; len(pts) > len(local) {
				w.appendLocal(origin, series, pts[len(local):])
			}
		}
	}
}

// digest hashes the logs the way Replica.SeriesDigest does.
func (w *wholeState) digest() uint64 { return logsDigest(w.logs) }

// logsDigest is the AP digest of per-series, per-origin point logs: per
// series in sorted order, each origin's point count in origin order,
// then every point of the series sorted by stamp and value bits.
func logsDigest(logs map[string]map[string][]Point) uint64 {
	h := uint64(fnvOffset)
	names := make([]string, 0, len(logs))
	for name := range logs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h = digestString(h, name)
		ids := make([]string, 0, len(logs[name]))
		for id := range logs[name] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var all []Point
		for _, id := range ids {
			h = digestString(h, id)
			h = digestU64(h, uint64(len(logs[name][id])))
			all = append(all, logs[name][id]...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].T != all[j].T {
				return all[i].T < all[j].T
			}
			return math.Float64bits(all[i].V) < math.Float64bits(all[j].V)
		})
		h = digestPoints(h, all)
	}
	return h
}

// chaosPort wraps a gossip.Port with the faults a real link has: it
// drops, duplicates and holds back (so reorders) frames, and cuts the
// pairs listed in cut in both directions.
type chaosPort struct {
	*gossip.Port
	rng  *rand.Rand
	cut  map[[2]string]bool
	held []heldFrame
}

type heldFrame struct {
	peer string
	data []byte
}

func (c *chaosPort) Send(peer string, data []byte) error {
	if c.cut[[2]string{c.Self(), peer}] || c.cut[[2]string{peer, c.Self()}] {
		return nil
	}
	switch c.rng.Intn(5) {
	case 0: // dropped
		return nil
	case 1: // duplicated
		_ = c.Port.Send(peer, data)
	case 2: // held back until after the next frame
		c.held = append(c.held, heldFrame{peer, bytes.Clone(data)})
		return nil
	}
	err := c.Port.Send(peer, data)
	held := c.held
	c.held = nil // the sends below nest: they must not deliver these again
	for _, h := range held {
		_ = c.Port.Send(h.peer, h.data)
	}
	return err
}

// TestAPDeltaConvergesLikeWholeState drives three AP replicas with
// random appends — several origins per series, stamps out of order —
// over links that drop, duplicate and reorder frames, with a and c cut
// from each other so b must relay, and checks the delta protocol against
// the whole-state reference: first that relaying alone converges the
// group, then that after the heal every replica's digest is the
// reference's.
func TestAPDeltaConvergesLikeWholeState(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			k := sim.New(seed)
			rng := rand.New(rand.NewSource(seed))
			net := gossip.NewNetwork()
			names := []string{"a", "b", "c"}
			cut := map[[2]string]bool{{"a", "c"}: true}
			replicas := make([]*Replica, len(names))
			oracles := make([]*wholeState, len(names))
			for i, name := range names {
				port := &chaosPort{Port: net.Attach(name), rng: rand.New(rand.NewSource(seed*10 + int64(i))), cut: cut}
				replicas[i] = NewReplica(port, clock.Kernel{K: k}, ReplicaConfig{
					Mode: ModeAP, ClusterSize: len(names), SegmentSize: 16,
					Gossip: gossip.Config{Interval: time.Second, Seed: seed + int64(i)},
				})
				oracles[i] = newWholeState()
			}
			appendSome := func(n int) {
				for ; n > 0; n-- {
					i := rng.Intn(len(names))
					series := fmt.Sprintf("s%d", rng.Intn(6))
					pts := make([]Point, 1+rng.Intn(5))
					for j := range pts {
						pts[j] = Point{T: time.Duration(rng.Intn(1000)) * time.Millisecond, V: rng.Float64()}
					}
					replicas[i].AppendPoints(series, pts, nil)
					oracles[i].appendLocal(names[i], series, pts)
					k.RunFor(time.Duration(rng.Intn(700)) * time.Millisecond)
				}
			}
			converged := func() bool {
				return replicas[0].SeriesDigest() == replicas[1].SeriesDigest() &&
					replicas[1].SeriesDigest() == replicas[2].SeriesDigest()
			}

			appendSome(60)
			k.RunFor(2 * time.Minute) // a|c still cut: everything a and c exchange goes through b
			if !converged() {
				t.Fatal("replicas did not converge through the relay")
			}
			delete(cut, [2]string{"a", "c"})
			appendSome(60)
			k.RunFor(2 * time.Minute)

			for _, o := range oracles[1:] {
				oracles[0].merge(o)
			}
			want := oracles[0].digest()
			for i, r := range replicas {
				if got := r.SeriesDigest(); got != want {
					t.Errorf("replica %s digest %x, whole-state reference %x", names[i], got, want)
				}
				if rej := r.Gossip().Rejected; rej != 0 {
					t.Errorf("replica %s rejected %d well-formed frames", names[i], rej)
				}
				r.Stop()
			}
		})
	}
}

// apFingerprint is everything Merge may change, for before/after checks.
func apFingerprint(s *apState) string {
	var regs []string
	for k, reg := range s.regs {
		regs = append(regs, fmt.Sprintf("%s=%d/%s/%x", k, reg.ts, reg.id, reg.val))
	}
	sort.Strings(regs)
	points := 0
	for _, ser := range s.series {
		points += ser.eng.Len()
	}
	return fmt.Sprintf("%x %x %v %d/%d", s.digest(fnvOffset), s.Summary(nil), regs, len(s.series), points)
}

// Time bounds wide enough for any stamp a test draws, and stamps the
// codec must carry.
const (
	minTime = time.Duration(-1 << 62)
	maxTime = time.Duration(1 << 62)
)

// extremePoints are the values a codec gets wrong first.
var extremePoints = []Point{
	{T: minTime, V: math.NaN()},
	{T: maxTime, V: math.Inf(1)},
	{T: 0, V: math.Inf(-1)},
	{T: math.MinInt64, V: math.SmallestNonzeroFloat64},
	{T: math.MaxInt64, V: -math.SmallestNonzeroFloat64},
	{T: 1, V: math.Float64frombits(0x7ff8000000000001)}, // a NaN with a payload
	{T: -1, V: math.MaxFloat64},
	{T: 0, V: math.Copysign(0, -1)},
}

// apSource returns a state holding series ops and register writes of
// origin id, extreme points among them.
func apSource(id string) *apState {
	s := newAPState(8, nil)
	for i := 0; i < 6; i++ {
		s.appendLocal(id, fmt.Sprintf("s%d", i%3), []Point{{T: secs(i), V: float64(i)}, {T: secs(i) / 2, V: -1}})
		s.setLocal(id, fmt.Sprintf("k%d", i%2), int64(i), []byte{byte(i)})
	}
	s.appendLocal(id, "extreme", extremePoints)
	return s
}

// apDelta is what from sends to, a peer it does not know by name.
func apDelta(t testing.TB, from, to *apState) []byte {
	delta, err := from.Delta(nil, "peer", to.Summary(nil))
	if err != nil {
		t.Fatal(err)
	}
	return delta
}

// TestAPMergeIsAtomic: a delta cut short anywhere — or with one byte
// flipped — either fails and changes nothing, or is a shorter valid
// delta; the state never holds part of a frame that failed.
func TestAPMergeIsAtomic(t *testing.T) {
	src := apSource("a")
	delta := apDelta(t, src, apSource("b"))
	before := apFingerprint(apSource("b"))
	for cut := 0; cut < len(delta); cut++ {
		dst := apSource("b")
		if err := dst.Merge(delta[:cut]); err != nil && apFingerprint(dst) != before {
			t.Fatalf("delta cut at %d of %d failed (%v) but changed the state", cut, len(delta), err)
		}
		flipped := bytes.Clone(delta)
		flipped[cut] ^= 0x55
		dst = apSource("b")
		if err := dst.Merge(flipped); err != nil && apFingerprint(dst) != before {
			t.Fatalf("delta with byte %d flipped failed (%v) but changed the state", cut, err)
		}
	}
	dst := apSource("b")
	if err := dst.Merge(delta); err != nil {
		t.Fatal(err)
	}
	if rest := apDelta(t, src, dst); len(rest) != 0 {
		t.Fatalf("after a full merge the source still owes %d bytes", len(rest))
	}
	if err := dst.Merge(append(bytes.Clone(delta), 3, 'x', 'y', 'z', 0, 200)); err == nil {
		t.Fatal("an op count larger than the payload was accepted")
	}
}

// TestAPMergeKeepsOriginPrefix: ops behind the held count are
// duplicates, a block ahead of it is a gap, and neither is applied — a
// replica's view of an origin is always a prefix of that origin's order.
func TestAPMergeKeepsOriginPrefix(t *testing.T) {
	src := apSource("a")
	held := func(s *apState) uint64 {
		if i, ok := s.findOrigin("a"); ok {
			return s.origins[i].count()
		}
		return 0
	}
	whole := apDelta(t, src, newAPState(0, nil))

	// Ops 5.. of a, offered to a replica that holds none of them.
	gap, err := src.Delta(nil, "peer", append(appendStr(nil, "a"), 5, 0, 0, 0, 0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ahead := newAPState(0, nil)
	if err := ahead.Merge(gap); err != nil {
		t.Fatal(err)
	}
	if held(ahead) != 0 || len(ahead.series) != 0 || len(ahead.origins) != 0 {
		t.Fatalf("a block starting at op 5 was applied on top of %d held ops", held(ahead))
	}

	// The same ops on top of a full copy are duplicates; twice the whole
	// delta is the whole delta.
	dst := newAPState(0, nil)
	for i := 0; i < 2; i++ {
		if err := dst.Merge(whole); err != nil {
			t.Fatal(err)
		}
		if err := dst.Merge(gap); err != nil {
			t.Fatal(err)
		}
	}
	if held(dst) != held(src) {
		t.Fatalf("holds %d ops of a after re-delivery, want %d", held(dst), held(src))
	}
	if dst.digest(fnvOffset) != src.digest(fnvOffset) {
		t.Fatal("re-delivered ops were applied twice")
	}
	if !bytes.Equal(dst.regs["k1"].val, src.regs["k1"].val) {
		t.Fatal("register did not arrive")
	}
	// Extreme values survive the wire bit for bit.
	if got, want := dst.series["extreme"].eng.appendAll(nil), src.series["extreme"].eng.appendAll(nil); len(got) != len(extremePoints) || !samePoints(got, want) {
		t.Fatalf("extreme points arrived as %v, want %v", got, want)
	}
}

// idleRoundBytes builds a converged two-replica AP group holding
// series x points and returns the gossip bytes of ten more seconds.
func idleRoundBytes(t *testing.T, series, points int) int {
	k := sim.New(4)
	net := gossip.NewNetwork()
	var replicas []*Replica
	for i, name := range []string{"a", "b"} {
		r := NewReplica(net.Attach(name), clock.Kernel{K: k}, ReplicaConfig{
			Mode: ModeAP, ClusterSize: 2, Gossip: gossip.Config{Interval: time.Second, Seed: int64(i + 1)},
		})
		defer r.Stop()
		replicas = append(replicas, r)
	}
	for s := 0; s < series; s++ {
		for p := 0; p < points; p += 10 {
			pts := make([]Point, 10)
			for j := range pts {
				pts[j] = Point{T: secs(p + j), V: float64(s)}
			}
			replicas[s%2].AppendPoints(fmt.Sprintf("dev/%d", s), pts, nil)
		}
	}
	k.RunFor(10 * time.Second)
	if replicas[0].SeriesDigest() != replicas[1].SeriesDigest() {
		t.Fatal("not converged")
	}
	sent := func() int { return replicas[0].Gossip().BytesSent + replicas[1].Gossip().BytesSent }
	before := sent()
	k.RunFor(10 * time.Second)
	return sent() - before
}

// TestAPIdleRoundCostIndependentOfData pins the design: what converged
// replicas say to each other does not grow with what they store.
func TestAPIdleRoundCostIndependentOfData(t *testing.T) {
	small, large := idleRoundBytes(t, 10, 10), idleRoundBytes(t, 2000, 200)
	if small == 0 || small != large {
		t.Fatalf("ten idle seconds cost %d B at 10x10 points and %d B at 2000x200", small, large)
	}
}

// TestAPSeriesCostProportionalToData pins the other half: a series that
// holds one point does not cost a segment-sized head.
func TestAPSeriesCostProportionalToData(t *testing.T) {
	const n = 10_000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("dev/%d/temp", i)
	}
	k := sim.New(1)
	r := NewReplica(gossip.NewNetwork().Attach("a"), clock.Kernel{K: k}, ReplicaConfig{Mode: ModeAP})
	defer r.Stop()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, name := range names {
		r.AppendPoints(name, []Point{{T: secs(i), V: 1}}, nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (after.HeapAlloc - before.HeapAlloc) / n; per >= 1024 {
		t.Fatalf("a one-point series retains %d B, want < 1 KB", per)
	}
	runtime.KeepAlive(r)
}

// FuzzAPDelta feeds Merge bytes a peer could send: it must not panic,
// must change nothing when it fails, and must carry a valid delta — one
// built from the same bytes read as a script of appends and register
// writes — to a replica that then owes and is owed nothing.
func FuzzAPDelta(f *testing.F) {
	valid := apDelta(f, apSource("a"), apSource("b"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(appendStr(nil, "a"), 0, 0xff, 0xff, 0xff, 0xff, 0x0f))                // op count far beyond the payload
	f.Add(append(appendStr(nil, "a"), 0, 1, 1, 's', opSeries, 0xff, 0xff, 0xff, 0x7f)) // point count beyond the payload
	f.Add(append(appendStr(nil, "a"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2))
	before := apFingerprint(apSource("b"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := apSource("b")
		if err := dst.Merge(data); err != nil && apFingerprint(dst) != before {
			t.Fatalf("Merge failed (%v) but changed the state", err)
		}

		from, to := newAPState(4, nil), newAPState(4, nil)
		for i := 0; i+3 <= len(data); i += 3 {
			key := fmt.Sprintf("k%d", data[i]%4)
			if data[i]&0x80 != 0 {
				from.setLocal("x", key, int64(data[i+1]), data[i:i+3])
				continue
			}
			p := extremePoints[int(data[i+1])%len(extremePoints)]
			from.appendLocal("x", key, []Point{p, {T: time.Duration(data[i+2]) << (data[i+1] % 56), V: float64(data[i+2])}})
		}
		if err := to.Merge(apDelta(t, from, to)); err != nil {
			t.Fatalf("a delta this package built does not merge: %v", err)
		}
		if owed := apDelta(t, from, to); len(owed) != 0 {
			t.Fatalf("after merging, %d bytes still owed", len(owed))
		}
		if owed := apDelta(t, to, from); len(owed) != 0 {
			t.Fatalf("the receiver holds %d bytes the sender does not", len(owed))
		}
		if apFingerprint(from) != apFingerprint(to) {
			t.Fatalf("states differ after a round trip:\n %s\n %s", apFingerprint(from), apFingerprint(to))
		}
	})
}

// summaryTarget returns a state holding ops of origins a and b whose
// peers are p and q: q has reported holding every op, p all but the
// last of each origin's, and those are dropped.
func summaryTarget(t testing.TB) *apState {
	s := apSource("a")
	if err := s.Merge(apDelta(t, apSource("b"), s)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		s.appendLocal(id, "s0", []Point{{T: secs(9), V: 9}})
	}
	s.peers = func() []string { return []string{"p", "q"} }
	var part []byte
	for _, o := range s.origins {
		part = appendStr(part, o.id)
		part = binary.LittleEndian.AppendUint64(part, o.count()-1)
	}
	for peer, summary := range map[string][]byte{"q": s.Summary(nil), "p": part} {
		if _, err := s.Delta(nil, peer, summary); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range s.origins {
		if o.base != o.count()-1 {
			t.Fatalf("origin %s: %d of %d ops dropped, want all but one", o.id, o.base, o.count())
		}
	}
	return s
}

// opsRecord is what a summary may change: per origin, the ops dropped
// and held, the bytes held and the peers' reports.
func opsRecord(s *apState) string {
	var b strings.Builder
	for _, o := range s.origins {
		fmt.Fprintf(&b, "%s base %d count %d bytes %d reports %v; ", o.id, o.base, o.count(), len(o.data), o.reports)
	}
	return b.String()
}

// FuzzAPSummary feeds Delta summary bytes from a named peer. It must not
// panic. A stranger's summary, or one that does not parse, records
// nothing and drops nothing. A summary that parses never drops an op
// beyond the fewest any peer has reported holding, and yields a delta
// that parses.
func FuzzAPSummary(f *testing.F) {
	full := summaryTarget(f).Summary(nil)
	f.Add(full)
	f.Add(full[:len(full)-3]) // the first origin parses, the second's count is cut short
	f.Add(append(append(appendStr(nil, "a"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), 5, 'b'))
	f.Add(append(appendStr(nil, "a"), 1, 0, 0, 0, 0, 0, 0, 0)) // below what is dropped
	f.Add(append(append(appendStr(nil, "b"), 2, 0, 0, 0, 0, 0, 0, 0), full...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, summary []byte) {
		s := summaryTarget(t)
		before := opsRecord(s)
		if _, err := s.Delta(nil, "stranger", summary); err == nil && opsRecord(s) != before {
			t.Fatalf("a stranger's summary changed the ops held:\n %s\n %s", before, opsRecord(s))
		}
		delta, err := s.Delta(nil, "p", summary)
		if err != nil {
			if opsRecord(s) != before {
				t.Fatalf("a summary that failed (%v) changed the ops held:\n %s\n %s", err, before, opsRecord(s))
			}
			return
		}
		// What p can have reported of each origin: its earlier report or
		// any count this summary lists.
		claimed := map[string]uint64{}
		for r := (wireReader{data: summary}); len(r.data) > 0; {
			id, n := r.str("origin"), r.u64("count")
			claimed[string(id)] = max(claimed[string(id)], n)
		}
		for _, o := range s.origins {
			p := max(claimed[o.id], o.count()-1)
			if low := min(p, o.count()); o.base > low {
				t.Fatalf("origin %s: %d ops dropped, but p reported at most %d", o.id, o.base, low)
			}
		}
		if _, err := parseDelta(delta); err != nil {
			t.Fatalf("the delta served does not parse: %v", err)
		}
	})
}

package main

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/gateway"
)

// gwSize is the recorded size of gw-fanout.
type gwSize struct {
	Observers    int           `json:"observers"`
	Resources    int           `json:"resources"`
	SetupRepeats int           `json:"setup_repeats"`
	Rates        []float64     `json:"publishes_per_s"`
	StepSeconds  []float64     `json:"step_seconds"` // at runSeconds
	ConSeconds   float64       `json:"con_step_seconds"`
	BurstSeconds float64       `json:"burst_step_seconds"`
	BurstPerS    float64       `json:"burst_offers_per_s"`
	CapSeconds   float64       `json:"capacity_step_seconds"`
	Coalesce     time.Duration `json:"coalesce_ns"`
	GetPerS      int           `json:"cached_get_per_s"`
	HTTPPerS     int           `json:"http_last_per_s"`
	ChurnShare   float64       `json:"reregister_share_per_s"`
	UDPObservers int           `json:"udp_observers"`
	UDPRounds    int           `json:"udp_rounds"`
}

func gwSizes(o options) gwSize {
	s := gwSize{
		Observers: 200_000, Resources: 16, SetupRepeats: 5,
		Rates:       []float64{20, 40, 80}, // x 12 500 observers = 0.25 / 0.5 / 1 M notifications/s
		StepSeconds: []float64{2, 7, 2},
		ConSeconds:  1, BurstSeconds: 1, BurstPerS: 500, CapSeconds: 2,
		Coalesce: 20 * time.Millisecond,
		GetPerS:  200, HTTPPerS: 200, ChurnShare: 0.01,
		UDPObservers: 1000, UDPRounds: 20,
	}
	if o.smoke {
		s.Observers, s.UDPObservers, s.UDPRounds = 3200, 50, 5
	}
	k := o.scale()
	for i := range s.StepSeconds {
		s.StepSeconds[i] *= k
	}
	s.ConSeconds *= k
	s.BurstSeconds *= k
	s.CapSeconds *= k
	return s
}

const gwPayloadLen = 16 // int64 due time (ns since run start), uint64 publish id

// gwToken is shared by every impersonated observer: registry keys are
// (address, token), so distinct addresses alone keep observers apart,
// and one marshalled datagram per resource serves a whole storm.
var gwToken = []byte{0x5e, 0xed}

// padCounter keeps per-resource counters on their own cache lines.
type padCounter struct {
	n atomic.Int64
	_ [56]byte
}

// fanoutTransport is the benchmark's coap.Transport for gw-fanout. It
// impersonates every observer: it ACKs confirmable notifications,
// checks each observer's Observe sequence, and times every
// notification from the due time its payload carries.
type fanoutTransport struct {
	mu   sync.Mutex
	recv func(from string, data []byte)
	t0   time.Time

	lastSeq []uint32 // per observer: last Observe value
	lastPub []uint64 // per observer: last publish id
	seen    []uint32 // per observer: notifications received
	perRes  []padCounter

	step      atomic.Pointer[stepRec] // where the current step's latencies go
	delivered atomic.Int64
	nonMono   atomic.Int64
	dupPub    atomic.Int64
}

func newFanoutTransport(observers, resources int) *fanoutTransport {
	return &fanoutTransport{
		t0:      time.Now(),
		lastSeq: make([]uint32, observers),
		lastPub: make([]uint64, observers),
		seen:    make([]uint32, observers),
		perRes:  make([]padCounter, resources),
	}
}

func (t *fanoutTransport) now() int64 { return int64(time.Since(t.t0)) }

func (t *fanoutTransport) recvCB() func(from string, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recv
}

func (t *fanoutTransport) SetReceiver(fn func(from string, data []byte)) {
	t.mu.Lock()
	t.recv = fn
	t.mu.Unlock()
}

func (t *fanoutTransport) LocalAddr() string { return "gw" }
func (t *fanoutTransport) Close() error      { return nil }

// observerIndex parses "o<decimal>"; -1 for any other address.
func observerIndex(addr string) int {
	if len(addr) < 2 || addr[0] != 'o' {
		return -1
	}
	n := 0
	for i := 1; i < len(addr); i++ {
		c := addr[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func (t *fanoutTransport) Send(addr string, data []byte) error {
	if len(data) < 4 {
		return nil
	}
	typ := coap.Type((data[0] >> 4) & 0x3)
	tkl := int(data[0] & 0x0f)
	opt := 4 + tkl
	// A notification is a non-ACK 2.05 whose first option is Observe
	// (option 6) and whose payload is a published representation.
	// Everything else answers a request the benchmark injected.
	if typ == coap.Acknowledgement || typ == coap.Reset || len(data) < opt+1+gwPayloadLen || data[opt]>>4 != 6 {
		return nil
	}
	if typ == coap.Confirmable {
		t.recvCB()(addr, []byte{0x60, 0x00, data[2], data[3]}) // empty ACK, echoed MID
	}
	payload := data[len(data)-gwPayloadLen:]
	due := int64(binary.BigEndian.Uint64(payload[0:8]))
	pub := binary.BigEndian.Uint64(payload[8:16])
	if pub == 0 {
		return nil // the cache-warming representation riding a registration response
	}
	i := observerIndex(addr)
	if i < 0 || i >= len(t.seen) {
		return nil
	}
	var seq uint32
	for _, b := range data[opt+1 : opt+1+int(data[opt]&0x0f)] {
		seq = seq<<8 | uint32(b)
	}
	if seq <= t.lastSeq[i] {
		t.nonMono.Add(1)
	}
	t.lastSeq[i] = seq
	if pub <= t.lastPub[i] {
		t.dupPub.Add(1)
	}
	t.lastPub[i] = pub
	t.seen[i]++
	if rec := t.step.Load(); rec != nil {
		if typ == coap.Confirmable {
			rec.con.observe(t.now() - due)
		} else if due >= rec.from {
			rec.non.observe(t.now() - due)
		}
	}
	t.perRes[i%len(t.perRes)].n.Add(1)
	t.delivered.Add(1)
	return nil
}

var _ coap.Transport = (*fanoutTransport)(nil)

// gwRun is one gateway under load.
type gwRun struct {
	sz    gwSize
	tr    *fanoutTransport
	conn  *coap.Conn
	gw    *gateway.Gateway
	paths []string
	regs  [][]byte // NON register datagram per resource
	dereg [][]byte
	pubID uint64
	sp    *spanLog
}

func gwPath(i int) string { return "plant/" + strconv.Itoa(i) }

func nonObserve(path string, register bool) []byte {
	obs := uint32(1)
	if register {
		obs = 0
	}
	m := &coap.Message{Type: coap.NonConfirmable, Code: coap.CodeGET, Token: gwToken, MessageID: 0x5e5e}
	m.AddUintOption(coap.OptObserve, obs)
	m.SetPath(path)
	data, err := m.Marshal()
	if err != nil {
		panic(err) // a fixed, valid message
	}
	return data
}

func newGWRun(sz gwSize, sp *spanLog) *gwRun {
	g := &gwRun{sz: sz, sp: sp}
	g.tr = newFanoutTransport(sz.Observers, sz.Resources)
	g.conn = coap.NewConn(g.tr, &clock.System{}, coap.ConnConfig{})
	g.gw = gateway.New(g.conn, gateway.Config{
		MaxObservers: sz.Observers,
		RejectMaxAge: 5,
		Coalesce:     sz.Coalesce,
		ConfirmEvery: -1,
	})
	warm := make([]byte, gwPayloadLen) // publish id 0: never counted as a notification
	for i := 0; i < sz.Resources; i++ {
		p := gwPath(i)
		g.paths = append(g.paths, p)
		g.gw.AddResource(p, "iiot.plant", nil)
		g.gw.Publish(p, coap.FormatOctets, warm)
		g.regs = append(g.regs, nonObserve(p, true))
		g.dereg = append(g.dereg, nonObserve(p, false))
	}
	return g
}

func (g *gwRun) close() {
	g.gw.Close()
	_ = g.conn.Close()
}

// storm injects one datagram per observer from nproc goroutines and
// returns how long that took.
func (g *gwRun) storm(dgrams [][]byte) time.Duration {
	recv := g.tr.recvCB()
	workers := runtime.GOMAXPROCS(0)
	chunk := (g.sz.Observers + workers - 1) / workers
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, g.sz.Observers)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				recv("o"+strconv.Itoa(i), dgrams[i%len(dgrams)])
			}
		}(lo, hi)
	}
	wg.Wait()
	return time.Since(t0)
}

func (g *gwRun) observers() int {
	n := 0
	for _, p := range g.paths {
		n += g.gw.Server().Resource(p).ObserverCount()
	}
	return n
}

// publish offers one representation stamped with its due time.
func (g *gwRun) publish(res int, due int64) time.Duration {
	g.pubID++
	var payload [gwPayloadLen]byte
	binary.BigEndian.PutUint64(payload[0:8], uint64(due))
	binary.BigEndian.PutUint64(payload[8:16], g.pubID)
	s := g.sp.begin("gateway.Publish", g.pubID, -1)
	t := time.Now()
	g.gw.Publish(g.paths[res], coap.FormatOctets, payload[:])
	d := time.Since(t)
	g.sp.end(s)
	return d
}

// quiesce waits until the fan-out pool has gone idle — no delivery for
// 100 ms, bounded by limit — and returns when the last delivery landed.
func (g *gwRun) quiesce(limit time.Duration) time.Time {
	deadline := time.Now().Add(limit)
	last, lastChange := g.tr.delivered.Load(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		if n := g.tr.delivered.Load(); n != last {
			last, lastChange = n, time.Now()
		} else if time.Since(lastChange) > 100*time.Millisecond {
			break
		}
	}
	return lastChange
}

// stepRec collects one step's notification latencies: confirmable and
// non-confirmable apart. Publishes due before from — the step's first
// second, while the pool's workers wake up — are not recorded.
type stepRec struct {
	from     int64 // ns: first due time that counts
	non, con latHist
}

// newStepRec discards the first second of a step, or its first third
// when the step is shorter than three seconds.
func newStepRec(start int64, seconds float64) *stepRec {
	return &stepRec{from: start + int64(min(1, seconds/3)*1e9)}
}

func (rec *stepRec) quantileMS(p float64) float64 { return rec.non.quantileNs(p) / 1e6 }

// stepStats is what one open-loop step measured.
type stepStats struct {
	rec     *stepRec
	late    []float64 // ms the generator ran late, per publish
	pubCall []float64 // us per Publish call
}

// openLoop publishes on a fixed schedule — rate per second, round-robin
// over the resources given — regardless of how the gateway keeps up,
// and times each notification from the publish's due instant.
func (g *gwRun) openLoop(rate, seconds float64, resources []int) stepStats {
	n := int(rate * seconds)
	start := g.tr.now()
	st := stepStats{rec: newStepRec(start, seconds)}
	g.tr.step.Store(st.rec)
	for k := 0; k < n; k++ {
		due := start + int64(float64(k)/rate*1e9)
		if wait := due - g.tr.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		st.late = append(st.late, float64(g.tr.now()-due)/1e6)
		d := g.publish(resources[k%len(resources)], due)
		st.pubCall = append(st.pubCall, float64(d)/1e3)
	}
	g.quiesce(3 * time.Second)
	g.tr.step.Store(nil)
	return st
}

// sideLoad is the second load goroutine: paced cached CoAP GETs, HTTP
// /v1/last reads, and observer re-registrations beside the fan-out.
type sideLoad struct {
	g        *gwRun
	stop     chan struct{}
	done     chan struct{}
	churn    atomic.Bool
	getUS    []float64
	httpUS   []float64
	rereg    int
	churned  []bool // observers that were ever re-registered
	httpFail int
}

func (g *gwRun) startSideLoad() *sideLoad {
	s := &sideLoad{g: g, stop: make(chan struct{}), done: make(chan struct{}), churned: make([]bool, g.sz.Observers)}
	s.churn.Store(true)
	go s.run()
	return s
}

func (s *sideLoad) run() {
	defer close(s.done)
	g := s.g
	recv := g.tr.recvCB()
	handler := g.gw.HTTPHandler()
	mid := uint16(1)
	conGet := func(path string, observe int, token []byte) []byte {
		m := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET, Token: token, MessageID: mid}
		mid++
		if observe >= 0 {
			m.AddUintOption(coap.OptObserve, uint32(observe))
		}
		m.SetPath(path)
		data, err := m.Marshal()
		if err != nil {
			panic(err)
		}
		return data
	}
	churnPerS := s.g.sz.ChurnShare * float64(g.sz.Observers)
	var getDebt, httpDebt, churnDebt float64
	next, res := 0, 0
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			dt := now.Sub(last).Seconds()
			last = now
			getDebt += dt * float64(g.sz.GetPerS)
			httpDebt += dt * float64(g.sz.HTTPPerS)
			if s.churn.Load() {
				churnDebt += dt * churnPerS
			}
			for ; getDebt >= 1; getDebt-- {
				t := time.Now()
				recv("r0", conGet(g.paths[res%len(g.paths)], -1, []byte{0x01}))
				s.getUS = append(s.getUS, float64(time.Since(t))/1e3)
				res++
			}
			for ; httpDebt >= 1; httpDebt-- {
				req := httptest.NewRequest(http.MethodGet, "/v1/last/"+g.paths[res%len(g.paths)], nil)
				rec := httptest.NewRecorder()
				t := time.Now()
				handler.ServeHTTP(rec, req)
				s.httpUS = append(s.httpUS, float64(time.Since(t))/1e3)
				if rec.Code != http.StatusOK {
					s.httpFail++
				}
				res++
			}
			for ; churnDebt >= 1; churnDebt-- {
				// Confirmable, so the answers ride ACKs and can never be
				// mistaken for notifications by the transport.
				i := next % g.sz.Observers
				next += 97 // stride through the population
				addr := "o" + strconv.Itoa(i)
				path := g.paths[i%len(g.paths)]
				sp := g.sp.begin("coap.reregister", uint64(i), -1)
				recv(addr, conGet(path, 1, gwToken))
				recv(addr, conGet(path, 0, gwToken))
				g.sp.end(sp)
				s.churned[i] = true
				s.rereg++
			}
		}
	}
}

func (s *sideLoad) halt() {
	close(s.stop)
	<-s.done
}

func runGW(o options) (*result, error) {
	sz := gwSizes(o)
	r := newResult()
	r.sizes = sz
	sp := newSpanLog(o.trace)
	prof := &cpuProfile{}

	// --- set-up: the registration storm, several times over ---
	var setups, regRates, deregRates []float64
	var g *gwRun
	for rep := 0; rep < sz.SetupRepeats; rep++ {
		t0 := time.Now()
		g = newGWRun(sz, sp)
		ss := sp.begin("coap.register.storm", uint64(rep), -1)
		d := g.storm(g.regs)
		sp.end(ss)
		setups = append(setups, time.Since(t0).Seconds())
		regRates = append(regRates, float64(sz.Observers)/d.Seconds())
		if got := g.observers(); got != sz.Observers {
			return nil, fmt.Errorf("gw-fanout: registered %d of %d observers", got, sz.Observers)
		}
		if rep < sz.SetupRepeats-1 {
			sd := sp.begin("coap.deregister.storm", uint64(rep), -1)
			dd := g.storm(g.dereg)
			sp.end(sd)
			deregRates = append(deregRates, float64(sz.Observers)/dd.Seconds())
			if left := g.observers(); left != 0 {
				return nil, fmt.Errorf("gw-fanout: %d observers left after a deregistration storm", left)
			}
			g.close()
			g = nil
			runtime.GC() // a discarded set-up gateway is garbage, not load
		}
	}
	defer g.close()
	r.e2e["setup_s"] = median(setups)
	r.layer["coap.register_per_s"] = median(regRates)
	runtime.GC() // the storm's garbage is set-up's, not the measured phase's

	all := make([]int, sz.Resources)
	for i := range all {
		all[i] = i
	}

	// --- measured phase: fixed open-loop work ---
	if o.trace {
		prof.start()
	}
	var cost phaseCost
	cost.start()
	side := g.startSideLoad()
	var steps []stepStats
	for i, rate := range sz.Rates {
		steps = append(steps, g.openLoop(rate, sz.StepSeconds[i], all))
	}
	gate := steps[1]

	// One step at the protocol-default confirmable cadence (every 8th
	// notification of a resource is a CON the observer must ACK).
	g.gw.Server().SetConfirmEvery(0)
	conStep := g.openLoop(sz.Rates[1], sz.ConSeconds, all)
	g.gw.Server().SetConfirmEvery(-1)

	// Sensor burst: one resource offered far faster than the coalescing
	// interval; observers must see the leading and the trailing state,
	// not every sample.
	before := g.gw.Stats()
	burst := g.openLoop(sz.BurstPerS, sz.BurstSeconds, []int{0})
	g.gw.Flush()
	g.quiesce(time.Second)
	after := g.gw.Stats()
	cost.stop()

	// --- closed-loop capacity: one outstanding round per resource ---
	side.churn.Store(false) // a stable population makes a round's size exact
	time.Sleep(5 * time.Millisecond)
	capRec := newStepRec(g.tr.now(), sz.CapSeconds)
	g.tr.step.Store(capRec)
	target := make([]int64, sz.Resources)
	for i := range target {
		target[i] = g.tr.perRes[i].n.Load()
	}
	capStart, capBase := time.Now(), g.tr.delivered.Load()
	capDeadline := capStart.Add(time.Duration(sz.CapSeconds * float64(time.Second)))
	for time.Now().Before(capDeadline) {
		idle := true
		for i := range target {
			if g.tr.perRes[i].n.Load() >= target[i] {
				target[i] += int64(g.gw.Server().Resource(g.paths[i]).ObserverCount())
				g.publish(i, g.tr.now())
				idle = false
			}
		}
		if idle {
			time.Sleep(50 * time.Microsecond)
		}
	}
	capDelivered := g.tr.delivered.Load() - capBase
	capRate := float64(capDelivered) / time.Since(capStart).Seconds()
	g.quiesce(3 * time.Second)
	g.tr.step.Store(nil)
	side.halt()
	if o.trace {
		shares, err := prof.stop(wGW)
		if err != nil {
			return nil, err
		}
		emitCPUShares(r.layer, shares)
	}
	drops := g.gw.Server().NotifyDropped()

	// --- loopback-UDP leg ---
	udpP50, udpLost, udpErr := udpLeg(sz)
	if udpErr != nil {
		r.note("loopback-UDP leg skipped: %v", udpErr)
	}

	// --- deregistration storm and leak check ---
	sd := sp.begin("coap.deregister.storm", uint64(sz.SetupRepeats), -1)
	dd := g.storm(g.dereg)
	sp.end(sd)
	deregRates = append(deregRates, float64(sz.Observers)/dd.Seconds())
	leaked := g.observers()

	// --- metrics ---
	cost.emit(r)
	r.e2e["notify_p50_ms"] = gate.rec.quantileMS(50)
	r.layer["gateway.notify_p99_ms_at_0.5M"] = gate.rec.quantileMS(99)
	r.e2e["notify_capacity_per_s"] = capRate
	r.layer["gateway.notify_p99_ms_at_0.25M"] = steps[0].rec.quantileMS(99)
	r.layer["gateway.notify_p99_ms_at_1M"] = steps[2].rec.quantileMS(99)
	r.layer["coap.con_notify_p50_ms"] = conStep.rec.con.quantileNs(50) / 1e6
	r.layer["coap.udp_notify_p50_ms"] = udpP50
	r.layer["coap.deregister_per_s"] = median(deregRates)
	r.layer["coap.notify_dropped"] = float64(drops)
	r.layer["coap.leaked_observers"] = float64(leaked)
	r.layer["coap.get_p50_us"] = median(side.getUS)
	r.layer["gateway.http_last_p50_us"] = median(side.httpUS)
	r.layer["gateway.cache_entries"] = float64(after.CacheEntries)
	if off := after.Offered - before.Offered; off > 0 {
		r.layer["gateway.coalesced_share"] = float64(after.Coalesced-before.Coalesced) / float64(off)
	}
	var late, pubCall []float64
	for _, st := range append(steps, conStep, burst) {
		late = append(late, st.late...)
		pubCall = append(pubCall, st.pubCall...)
	}
	r.layer["loadgen.late_p99_ms"] = percentile(sortedCopy(late), 99)
	r.layer["gateway.publish_call_p50_us"] = median(pubCall)
	r.layer["coap.codec_ns"] = coapCodecNs()
	if o.trace {
		// Real-time work is open loop, so tracing cannot stretch the wall
		// clock; its cost is the span bookkeeping's CPU share.
		r.layer["trace.overhead_share"] = spanCostNs() * float64(len(sp.s)) / 1e9 / cost.cpu
		if path, err := sp.write(wGW); err == nil {
			r.note("spans: %d written to %s", len(sp.s), path)
			r.note("%s", sp.summary())
		}
	}

	// --- correctness: every stable observer saw every round once, in
	// order; nothing leaked ---
	missing, stable, rounds := missingNotifications(g.tr.seen, side.churned, sz.Resources)
	expected := rounds * int64(sz.Observers/sz.Resources)
	r.attempted = expected + int64(len(side.getUS)+len(side.httpUS)+side.rereg)
	r.failed = missing + int64(side.httpFail) + int64(leaked)
	r.e2e["delivered_share"] = 1 - float64(r.failed)/float64(r.attempted)
	r.check("observers-saw-each-round-once", missing == 0 && g.tr.dupPub.Load() == 0,
		"%d stable observers, %d rounds over %d resources: %d notifications missing, %d duplicated, %d shard pushes dropped",
		stable, rounds, sz.Resources, missing, g.tr.dupPub.Load(), drops)
	r.check("observe-sequence-monotone", g.tr.nonMono.Load() == 0, "%d notifications with a non-increasing Observe value", g.tr.nonMono.Load())
	r.check("no-leaked-observers", leaked == 0, "%d observers left after the deregistration storm", leaked)
	r.check("gate-step-measured", gate.rec.non.count() > 0 && capDelivered > 0,
		"%d latency samples at the 0.5M/s step; %d notifications in the capacity step", gate.rec.non.count(), capDelivered)
	r.note("gw-fanout: %d observers on %d resources; steps %v publishes/s; %d notifications; %d re-registrations, %d cached GETs, %d HTTP reads beside; CON step %d samples; UDP leg (loopback, labelled) lost %d",
		sz.Observers, sz.Resources, sz.Rates, g.tr.delivered.Load(), side.rereg, len(side.getUS), len(side.httpUS), conStep.rec.con.count(), udpLost)
	r.note("gw-fanout: capacity step p50 %.2f ms; 1M/s step p50 %.2f ms", capRec.quantileMS(50), steps[2].rec.quantileMS(50))
	return r, nil
}

// udpLeg runs a small second gateway over a real loopback UDP socket
// with a coap.Conn client on another: the only part of the benchmark
// whose traffic leaves the process. It returns the p50 notification
// latency in ms and how many notifications never arrived.
func udpLeg(sz gwSize) (p50 float64, lost int64, err error) {
	srvTr, err := coap.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := coap.NewConn(srvTr, &clock.System{}, coap.ConnConfig{})
	gw := gateway.New(srv, gateway.Config{MaxObservers: sz.UDPObservers, ConfirmEvery: -1})
	defer func() {
		gw.Close()
		_ = srv.Close()
	}()
	cliTr, err := coap.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	cli := coap.NewConn(cliTr, &clock.System{}, coap.ConnConfig{})
	defer cli.Close()

	const path = "plant/udp"
	gw.AddResource(path, "iiot.plant", nil)
	gw.Publish(path, coap.FormatOctets, make([]byte, gwPayloadLen))
	t0 := time.Now()
	var mu sync.Mutex
	var lat []float64
	var registered atomic.Int64
	for i := 0; i < sz.UDPObservers; i++ {
		first := true
		cli.Observe(srv.LocalAddr(), path, func(m *coap.Message, err error) {
			if err != nil || len(m.Payload) != gwPayloadLen {
				return
			}
			if first {
				first = false
				registered.Add(1)
				return
			}
			due := int64(binary.BigEndian.Uint64(m.Payload[0:8]))
			mu.Lock()
			lat = append(lat, float64(int64(time.Since(t0))-due)/1e6)
			mu.Unlock()
		})
		if i%64 == 63 {
			time.Sleep(time.Millisecond) // keep the storm inside the socket buffers
		}
	}
	for deadline := time.Now().Add(3 * time.Second); registered.Load() < int64(sz.UDPObservers) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	n := int(registered.Load())
	if n == 0 {
		return 0, 0, fmt.Errorf("no observer registered over loopback UDP")
	}
	for k := 0; k < sz.UDPRounds; k++ {
		var payload [gwPayloadLen]byte
		binary.BigEndian.PutUint64(payload[0:8], uint64(time.Since(t0)))
		binary.BigEndian.PutUint64(payload[8:16], uint64(k+1))
		gw.Publish(path, coap.FormatOctets, payload[:])
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	sort.Float64s(lat)
	return percentile(lat, 50), int64(n*sz.UDPRounds - len(lat)), nil
}

// coapCodecNs times one Marshal + Unmarshal of a notification-shaped
// message.
func coapCodecNs() float64 {
	m := &coap.Message{Type: coap.NonConfirmable, Code: coap.CodeContent, Token: gwToken, MessageID: 7, Payload: make([]byte, gwPayloadLen)}
	m.AddUintOption(coap.OptObserve, 1234)
	m.AddUintOption(coap.OptContentFormat, coap.FormatOctets)
	const rounds = 50000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		data, err := m.Marshal()
		if err != nil {
			return 0
		}
		if _, err := coap.Unmarshal(data); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / rounds
}

package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/core"
	"iiotds/internal/gateway"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/scenario"
	"iiotds/internal/sim"
	"iiotds/internal/store"
)

// fig1Size is the recorded size of fig1-uplink.
type fig1Size struct {
	Nodes        int           `json:"nodes"`
	SetupRepeats int           `json:"setup_repeats"`
	Density      float64       `json:"rgg_density"`
	PlantSeed    int64         `json:"plant_seed"`
	SampleEvery  time.Duration `json:"sample_every_ns"`
	SampleJitter time.Duration `json:"sample_jitter_ns"`
	BlobEvery    int           `json:"blob_one_node_in"`
	BlobBytes    int           `json:"blob_bytes"`
	Settle       time.Duration `json:"virtual_settle_ns"`  // after convergence, part of set-up
	Horizon      time.Duration `json:"virtual_horizon_ns"` // at runSeconds, per repeat
	Drain        time.Duration `json:"virtual_drain_ns"`
	FlushEvery   time.Duration `json:"store_flush_every_ns"`
	Shards       int           `json:"store_shards"`
	Replicas     int           `json:"store_replicas"`
	Zones        int           `json:"gateway_zones"`
	Observers    int           `json:"gateway_observers"`
	Coalesce     time.Duration `json:"gateway_coalesce_ns"`
}

func fig1Sizes(o options) fig1Size {
	s := fig1Size{
		Nodes: 1000, SetupRepeats: 5, Density: 6, PlantSeed: 1101,
		SampleEvery: 60 * time.Second, SampleJitter: 15 * time.Second,
		BlobEvery: 20, BlobBytes: 300,
		Settle: 30 * time.Second, Horizon: 270 * time.Second, Drain: 20 * time.Second,
		FlushEvery: 10 * time.Second, Shards: 4, Replicas: 3,
		Zones: 16, Observers: 1000, Coalesce: time.Second,
	}
	if o.smoke {
		s.Nodes, s.Observers, s.Settle, s.Horizon = 40, 48, 10*time.Second, 2*time.Minute
	}
	s.Horizon = time.Duration(float64(s.Horizon) * o.scale())
	return s
}

// reading is one sample a node took, as the benchmark remembers it.
type reading struct {
	node      int32
	at        sim.Time // virtual sample instant
	value     float32
	delivered bool
	acked     bool
}

const readingHeader = 8 // 0x16, 3-byte reading index, float32 value

func encodeReading(buf []byte, idx int, v float32) {
	buf[0] = 0x16
	buf[1], buf[2], buf[3] = byte(idx>>16), byte(idx>>8), byte(idx)
	binary.BigEndian.PutUint32(buf[4:8], math.Float32bits(v))
}

func decodeReading(p []byte) (idx int, v float32, ok bool) {
	if len(p) < readingHeader || p[0] != 0x16 {
		return 0, 0, false
	}
	return int(p[1])<<16 | int(p[2])<<8 | int(p[3]), math.Float32frombits(binary.BigEndian.Uint32(p[4:8])), true
}

// observerTransport is the benchmark's coap.Transport for the inline
// gateway: it impersonates the observer population, ACKs confirmable
// notifications like a live client, and hands every notification's
// payload tail to onNotify.
type observerTransport struct {
	recv     func(from string, data []byte)
	onNotify func(addr string, payload []byte)
}

func (t *observerTransport) Send(addr string, data []byte) error {
	if len(data) < 4 {
		return nil
	}
	typ := coap.Type((data[0] >> 4) & 0x3)
	if typ == coap.Confirmable {
		t.recv(addr, []byte{0x60, 0x00, data[2], data[3]}) // empty ACK, echoed MID
	}
	// Registration responses ride the ACK of the CON GET; everything
	// confirmable or non-confirmable from the gateway is a notification.
	if typ != coap.Acknowledgement && t.onNotify != nil && len(data) > readingHeader && data[len(data)-readingHeader-1] == 0xFF {
		t.onNotify(addr, data[len(data)-readingHeader:])
	}
	return nil
}

func (t *observerTransport) SetReceiver(fn func(from string, data []byte)) { t.recv = fn }
func (t *observerTransport) LocalAddr() string                             { return "gw" }
func (t *observerTransport) Close() error                                  { return nil }

// registerRequest marshals a CON GET carrying Observe=0 for path, with
// the given token and MID.
func registerRequest(path string, token []byte, mid uint16) []byte {
	m := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET, Token: token, MessageID: mid}
	m.AddUintOption(coap.OptObserve, 0)
	m.SetPath(path)
	data, err := m.Marshal()
	if err != nil {
		panic(err) // a fixed, valid message: a bug if it cannot marshal
	}
	return data
}

func runFig1(o options) (*result, error) {
	return runSimTwice(o, fig1Sizes(o).SetupRepeats, fig1Once, func(o options) (float64, error) {
		p, err := fig1Setup(o, &simTracing{spans: newSpanLog(false)})
		if err != nil {
			return 0, err
		}
		p.st.Stop()
		return p.setupWall, nil
	})
}

// fig1Plant is a built, converged deployment with its storage tier and
// observe gateway attached: everything set-up produces.
type fig1Plant struct {
	sz       fig1Size
	spec     scenario.Spec
	d        *core.Deployment
	st       *store.Sharded
	app      *store.Appender
	ot       *observerTransport
	gw       *gateway.Gateway
	zonePath []string

	setupWall, convergeWall, convergeVirtual float64
}

// fig1Setup builds the plant, converges the DODAG, and registers the
// observers.
func fig1Setup(o options, tr *simTracing) (*fig1Plant, error) {
	p := &fig1Plant{sz: fig1Sizes(o)}
	sz, sp := p.sz, tr.spans
	traceCap := -1
	if tr.on {
		traceCap = 1 << 21
	}
	// DAOInterval: a 1000-node fleet refreshing downward routes every
	// 15 s (the room-scale default) spends its whole funnel on DAOs; the
	// uplink needs none, so the plant runs a 5-minute refresh.
	p.spec = scenario.Spec{
		Seed: sz.PlantSeed,
		Topo: scenario.TopoSpec{Kind: scenario.TopoRGG, N: sz.Nodes, Density: sz.Density},
		Profiles: []core.Profile{{
			Name:   "mesh",
			MAC:    core.MACCSMA,
			Router: &rpl.Config{HopLimit: 64, DAOInterval: 5 * time.Minute},
		}},
		TraceCapacity: traceCap,
	}
	t0 := time.Now()
	sb := sp.begin("scenario.Build", 0, -1)
	d := scenario.Build(p.spec).D
	sp.end(sb)
	p.d = d
	tc := time.Now()
	sc := sp.begin("core.RunUntilConverged", 0, -1)
	converged, convIn := d.RunUntilConverged(20 * time.Minute)
	sp.end(sc)
	p.convergeWall = time.Since(tc).Seconds()
	p.convergeVirtual = convIn.Seconds()
	if !converged {
		return nil, fmt.Errorf("fig1-uplink: DODAG did not converge in 20 virtual minutes")
	}
	d.K.RunFor(sz.Settle) // Trickle reaches steady state before traffic starts

	// Storage tier behind the border router: alternating CP/AP shards
	// on the kernel clock, so every store latency is virtual.
	per := map[int]store.ShardPolicy{}
	for i := 0; i < sz.Shards; i += 2 {
		per[i] = store.ShardPolicy{Mode: store.ModeCP, Replicas: sz.Replicas}
	}
	p.st = store.NewSharded(clock.Kernel{K: d.K}, store.ShardedConfig{
		Shards:   sz.Shards,
		Policy:   store.ShardPolicy{Mode: store.ModeAP, Replicas: sz.Replicas},
		PerShard: per,
		Seed:     sz.PlantSeed,
		Metrics:  d.Reg,
		Node:     -1,
	})
	p.app = p.st.NewAppender()

	// Observe gateway on the same kernel, inline fan-out.
	p.ot = &observerTransport{}
	conn := coap.NewConn(p.ot, clock.Kernel{K: d.K}, coap.ConnConfig{Seed: sz.PlantSeed})
	p.gw = gateway.New(conn, gateway.Config{
		MaxObservers: sz.Observers,
		Coalesce:     sz.Coalesce,
		Inline:       true,
		Sched:        clock.Kernel{K: d.K},
		Metrics:      d.Reg,
	})
	p.zonePath = make([]string, sz.Zones)
	var seedPayload [readingHeader]byte
	encodeReading(seedPayload[:], 0xFFFFFF, 0)
	for z := range p.zonePath {
		p.zonePath[z] = "zone/" + strconv.Itoa(z)
		p.gw.AddResource(p.zonePath[z], "iiot.zone", nil)
		p.gw.Publish(p.zonePath[z], coap.FormatOctets, seedPayload[:]) // warm the cache: registration needs a 2.05
	}
	sr := sp.begin("coap.register", 0, -1)
	for i := 0; i < sz.Observers; i++ {
		tok := []byte{byte(i >> 8), byte(i)}
		p.ot.recv("o"+strconv.Itoa(i), registerRequest(p.zonePath[i%sz.Zones], tok, uint16(i)))
	}
	sp.end(sr)
	if got := p.gw.Stats().Observers; got != sz.Observers {
		return nil, fmt.Errorf("fig1-uplink: registered %d of %d observers", got, sz.Observers)
	}
	p.setupWall = time.Since(t0).Seconds()
	return p, nil
}

func fig1Once(o options, tr *simTracing) (*simRun, error) {
	p, err := fig1Setup(o, tr)
	if err != nil {
		return nil, err
	}
	sz, spec, d, st, app, ot, gw, zonePath, sp := p.sz, p.spec, p.d, p.st, p.app, p.ot, p.gw, p.zonePath, tr.spans
	defer st.Stop()
	s := newSimRun()
	s.sizes = sz
	s.setupWall, s.convergeWall, s.convergeVirtual = p.setupWall, p.convergeWall, p.convergeVirtual

	// --- inputs, generated from the seed: per-node phase, which nodes
	// send blobs, and every value ---
	rng := rand.New(rand.NewSource(o.seed))
	n := len(d.Nodes)
	series := make([]string, n)
	for i := range series {
		series[i] = fmt.Sprintf("node/%d/reading", i)
	}
	readings := make([]reading, 0, 1<<14)
	perSeries := make([][]int, n)  // reading indices appended per node
	var pending []int              // appended, not yet flushed
	var ackLat, obsLat []float64   // virtual ms
	var wrongValue, lateDecode int // hard failures seen at the root

	ot.onNotify = func(_ string, payload []byte) {
		idx, _, ok := decodeReading(payload)
		if !ok || idx >= len(readings) {
			return // the cache-warming representation
		}
		obsLat = append(obsLat, durMS(d.K.Now()-readings[idx].at))
	}

	d.Root().Router.Handle(lowpan.ProtoIngest, func(src radio.NodeID, payload []byte) {
		idx, v, ok := decodeReading(payload)
		if !ok || idx >= len(readings) {
			lateDecode++
			return
		}
		rd := &readings[idx]
		if rd.node != int32(src) || rd.value != v {
			wrongValue++
			return
		}
		if rd.delivered {
			return // a MAC-level duplicate; the store must see each reading once
		}
		rd.delivered = true
		id := uint64(idx) + 1
		root := sp.begin("uplink.deliver", id, -1)
		sa := sp.begin("store.Appender.Append", id, root)
		app.Append(series[src], store.Point{T: rd.at, V: float64(v)})
		sp.end(sa)
		perSeries[src] = append(perSeries[src], idx)
		pending = append(pending, idx)
		sg := sp.begin("gateway.Publish", id, root)
		gw.Publish(zonePath[int(src)%sz.Zones], coap.FormatOctets, payload[:readingHeader])
		sp.end(sg)
		sp.end(root)
	})

	var batchesFailed uint64
	flush := func() {
		if len(pending) == 0 {
			return
		}
		failedBefore := app.Failed()
		settledBefore := app.Acked() + failedBefore
		sf := sp.begin("store.Appender.Flush", 0, -1)
		app.Flush()
		sp.end(sf)
		// The in-memory replica fabric completes a quorum round inside
		// the call, so every batch flushed here is settled on return.
		if app.Acked()+app.Failed() == settledBefore {
			return
		}
		if f := app.Failed() - failedBefore; f > 0 {
			batchesFailed += f
		} else {
			now := d.K.Now()
			for _, idx := range pending {
				readings[idx].acked = true
				ackLat = append(ackLat, durMS(now-readings[idx].at))
			}
		}
		pending = pending[:0]
	}

	// --- measured phase ---
	before := d.K.Stats()
	counters := newCounterDelta(meshCounters, d.Reg)
	traceBase := d.Trace.Summary()
	if tr.on {
		tr.prof.start()
	}
	s.cost.start()
	start := d.K.Now()
	stopAt := start + sz.Horizon
	sample := func(nd *core.Node, blob bool) {
		if d.K.Now() >= stopAt || !nd.Up() {
			return
		}
		idx := len(readings)
		v := float32(20 + 10*rng.Float64())
		readings = append(readings, reading{node: int32(nd.ID), at: d.K.Now(), value: v})
		size := readingHeader
		if blob {
			size = sz.BlobBytes
		}
		buf := make([]byte, size)
		encodeReading(buf, idx, v)
		_ = nd.Router.SendUp(lowpan.ProtoIngest, buf)
	}
	for i, nd := range d.Nodes[1:] {
		nd := nd
		blob := (i+1)%sz.BlobEvery == 0
		phase := time.Duration(rng.Int63n(int64(sz.SampleEvery)))
		d.K.Schedule(phase, func() {
			sample(nd, blob)
			d.K.Every(sz.SampleEvery, sz.SampleJitter, func() { sample(nd, blob) })
		})
	}
	flusher := d.K.Every(sz.FlushEvery, 0, flush)
	run := func(dur time.Duration) {
		sr := sp.begin("sim.Kernel.RunFor", 0, -1)
		d.K.RunFor(dur)
		sp.end(sr)
	}
	run(sz.Horizon)
	if tr.on {
		// The ring holds only the newest events: read the journeys while
		// readings are still in flight, off the measured clock.
		s.cost.stop()
		emitJourneys(s, d.Trace)
		s.cost.start()
	}
	run(sz.Drain)
	flusher.Stop()
	flush()
	gw.Flush()
	s.cost.stop()
	if tr.on {
		shares, err := tr.prof.stop(wFig1)
		if err != nil {
			return nil, err
		}
		emitCPUShares(s.layer, shares)
	}
	after := d.K.Stats()
	s.nodeSimSeconds = float64(n) * (d.K.Now() - start).Seconds()

	// --- metrics ---
	emitMeshCounters(s, counters.delta(), before, after)
	sort.Float64s(ackLat)
	sort.Float64s(obsLat)
	s.exact["uplink_ack_p50_ms"] = percentile(ackLat, 50)
	s.exact["uplink_ack_p99_ms"] = percentile(ackLat, 99)
	s.exact["uplink_observer_p99_ms"] = percentile(obsLat, 99)
	var delivered, acked int64
	for i := range readings {
		if readings[i].delivered {
			delivered++
		}
		if readings[i].acked {
			acked++
		}
	}
	s.attempted = int64(len(readings))
	s.undelivered = s.attempted - delivered
	s.hardFailed = int64(wrongValue+lateDecode) + int64(batchesFailed) + (delivered - acked)
	s.exact["readings.sent"] = float64(len(readings))
	s.exact["readings.delivered"] = float64(delivered)
	s.exact["readings.acked"] = float64(acked)
	s.exact["observer.sends"] = float64(len(obsLat))
	gs := gw.Stats()
	s.exact["gateway.coalesced"] = float64(gs.Coalesced)

	if tr.on {
		emitTraceCounts(s, d.Trace.Summary(), traceBase)
		stats := sp.stats()
		s.layer["store.inline_append_ns"] = selfMean(stats, "store.Appender.Append")
		s.layer["gateway.inline_publish_ns"] = selfMean(stats, "gateway.Publish")
		if path, err := sp.write(wFig1); err == nil {
			s.notes = append(s.notes, fmt.Sprintf("spans: %d written to %s", len(sp.s), path), sp.summary())
		}
		s.layer["radio.send_ns"] = radioSendNs(spec.Topo.Generate(sz.PlantSeed))
		mix := make([]int, sz.BlobEvery)
		for i := range mix {
			mix[i] = readingHeader
		}
		mix[len(mix)-1] = sz.BlobBytes
		s.layer["lowpan.codec_ns"], s.layer["lowpan.fragments_per_datagram"] = lowpanCodec(mix)
	}

	// --- correctness: every acked point comes back from Range with
	// the delivered value, and the replicas' digests converge ---
	d.K.RunFor(5 * time.Second) // a few anti-entropy rounds on the kernel clock
	var missing, mismatched, extra int
	for node, idxs := range perSeries {
		if len(idxs) == 0 {
			continue
		}
		want := map[time.Duration]float64{}
		for _, idx := range idxs {
			if readings[idx].acked {
				want[readings[idx].at] = float64(readings[idx].value)
			}
		}
		var got []store.Point
		var rerr error
		st.Range(series[node], 0, d.K.Now()+time.Hour, func(pts []store.Point, err error) { got, rerr = pts, err })
		if rerr != nil {
			missing += len(want)
			continue
		}
		m, mm, ex := ackedPointsDiff(want, got)
		missing, mismatched, extra = missing+m, mismatched+mm, extra+ex
	}
	s.check("acked-points-readable", missing == 0 && mismatched == 0 && extra == 0,
		"%d acked points: %d missing, %d with a different value, %d unexpected", acked, missing, mismatched, extra)
	s.check("store-digests-converge", st.Converged(), "%d of %d shards converged", st.ConvergedShards(), st.NumShards())
	s.check("root-saw-only-sent-values", wrongValue == 0 && lateDecode == 0,
		"%d wrong-value, %d undecodable deliveries", wrongValue, lateDecode)
	s.check("delivered-readings-acked", delivered == acked && batchesFailed == 0,
		"%d delivered, %d acked, %d batches failed", delivered, acked, batchesFailed)
	s.notes = append(s.notes, fmt.Sprintf("fig1-uplink: %d readings sent, %d delivered, %d acked; %d observer sends; converge %.0f virtual s",
		len(readings), delivered, acked, len(obsLat), s.convergeVirtual))
	return s, nil
}

// Command iiotgw demonstrates that the middleware runs over real
// networks, not only the emulation: it serves the gateway's CoAP
// resources on a real UDP socket (device registry, canonical
// observations via protocol adapters) and, with -probe, acts as a CoAP
// client against another gateway instance.
//
// The observe side runs through internal/gateway: a sampler publishes
// the legacy device's readings into the gateway, which fans them out to
// (potentially very large) observer populations via the sharded notify
// pool, coalesces bursts, enforces the per-resource observer cap with
// 5.03 + Max-Age, and serves HTTP/JSON reads from its last-value cache.
//
//	iiotgw -listen 127.0.0.1:5683             # serve
//	iiotgw -http 127.0.0.1:8080               # + metrics and /v1 read path
//	iiotgw -probe 127.0.0.1:5683              # discover + read resources
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"iiotds/internal/adapter"
	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/gateway"
	"iiotds/internal/metrics"
	"iiotds/internal/registry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5683", "UDP address to serve CoAP on")
	probe := flag.String("probe", "", "act as client: discover and read a gateway at this address")
	httpAddr := flag.String("http", "", "serve /metrics and the /v1 JSON read path on this TCP address")
	pprofOn := flag.Bool("pprof", false, "also serve /debug/pprof/ on the -http address")
	obsMax := flag.Int("observers-max", 100000, "observer cap per resource (0 = protocol default)")
	coalesce := flag.Duration("coalesce", 0, "minimum interval between notification pushes per resource (0 = push every sample)")
	conEvery := flag.Int("con-every", 0, "make every n-th notification confirmable (0 = default 8, negative = never)")
	queueLen := flag.Int("notify-queue", 0, "per-shard notify queue length (0 = default)")
	sample := flag.Duration("sample", time.Second, "device sampling interval")
	flag.Parse()

	if *probe != "" {
		runProbe(*probe)
		return
	}
	runGateway(gwOptions{
		listen:   *listen,
		httpAddr: *httpAddr,
		pprofOn:  *pprofOn,
		obsMax:   *obsMax,
		coalesce: *coalesce,
		conEvery: *conEvery,
		queueLen: *queueLen,
		sample:   *sample,
	})
}

type gwOptions struct {
	listen   string
	httpAddr string
	pprofOn  bool
	obsMax   int
	coalesce time.Duration
	conEvery int
	queueLen int
	sample   time.Duration
}

// observabilityMux builds the HTTP surface: Prometheus text on /metrics,
// the gateway's /v1 read path, and — only when asked — the pprof
// endpoints.
func observabilityMux(reg *metrics.Registry, gw *gateway.Gateway, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if gw != nil {
		mux.Handle("/v1/", gw.HTTPHandler())
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// serveObservability runs the mux on an http.Server with timeouts (a
// stalled scrape must not pin a goroutine forever).
func serveObservability(addr string, mux *http.ServeMux) {
	s := gateway.NewHTTPServer(addr, mux)
	go func() {
		if err := s.ListenAndServe(); err != nil {
			fmt.Fprintf(os.Stderr, "iiotgw: http: %v\n", err)
		}
	}()
}

// runGateway serves the middleware over a real socket: an emulated legacy
// Modbus device is sampled into the gateway, which owns the fan-out.
func runGateway(o gwOptions) {
	tr, err := coap.NewUDPTransport(o.listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iiotgw: %v\n", err)
		os.Exit(1)
	}
	conn := coap.NewConn(tr, &clock.System{}, coap.ConnConfig{})
	defer conn.Close()

	mreg := metrics.NewRegistry()
	requests := func(resource string) *metrics.Counter {
		return mreg.CounterWith("gw.requests", metrics.L("resource", resource))
	}

	gw := gateway.New(conn, gateway.Config{
		MaxObservers: o.obsMax,
		RejectMaxAge: uint32((o.sample + time.Second - 1) / time.Second),
		Coalesce:     o.coalesce,
		ConfirmEvery: o.conEvery,
		QueueLen:     o.queueLen,
		Metrics:      mreg,
	})
	defer gw.Close()

	// One legacy device behind its adapter.
	mb := adapter.NewModbusAdapter()
	mbMap := adapter.ModbusMap{
		"temp":     {Register: 100, Scale: 100, Unit: "C"},
		"setpoint": {Register: 101, Scale: 100, Unit: "C", Writable: true},
	}
	mb.RegisterModel("plc-7", mbMap)
	dev := &registry.Device{
		ID: "press-1", Vendor: "Siematic", Model: "plc-7",
		Protocol: adapter.ProtocolModbus,
		Caps: []registry.Capability{
			{Name: "temp", Kind: registry.KindSensor, Unit: "C"},
			{Name: "setpoint", Kind: registry.KindActuator, Unit: "C"},
		},
	}
	emu := adapter.NewModbusEmulator(dev, mbMap)
	emu.SetState("temp", 36.5)
	emu.SetState("setpoint", 40)
	reg := registry.New()
	if err := reg.Register(dev); err != nil {
		fmt.Fprintf(os.Stderr, "iiotgw: %v\n", err)
		os.Exit(1)
	}

	readTemp := func() (string, error) {
		obs, err := mb.Decode(dev, emu.Frame(), time.Duration(time.Now().UnixNano()))
		if err != nil {
			return "", err
		}
		for _, o := range obs {
			if o.Cap == "temp" {
				return fmt.Sprintf("%.2f", o.Value), nil
			}
		}
		return "", fmt.Errorf("no temp observation")
	}

	srv := gw.Server()
	srv.Resource("registry/devices").ResourceType("iiot.registry").Get(
		func(string, *coap.Message) *coap.Message {
			requests("registry").Inc()
			var sb strings.Builder
			for _, d := range reg.All() {
				fmt.Fprintf(&sb, "%s vendor=%s model=%s proto=%s\n", d.ID, d.Vendor, d.Model, d.Protocol)
			}
			return coap.TextResponse(sb.String())
		})
	// The observable sensor serves from the last-value cache; until the
	// first sample lands, the fallback reads the device synchronously.
	gw.AddResource("devices/press-1/temp", "iiot.sensor",
		func(string, *coap.Message) *coap.Message {
			requests("temp").Inc()
			v, err := readTemp()
			if err != nil {
				return coap.ErrorResponse(coap.CodeInternalServerError, err.Error())
			}
			return coap.TextResponse(v)
		})
	srv.Resource("devices/press-1/setpoint").ResourceType("iiot.actuator").Put(
		func(_ string, req *coap.Message) *coap.Message {
			requests("setpoint").Inc()
			var v float64
			if _, err := fmt.Sscanf(string(req.Payload), "%f", &v); err != nil {
				return coap.ErrorResponse(coap.CodeBadRequest, "want a number")
			}
			raw, err := mb.EncodeCommand(dev, registry.Command{Device: dev.ID, Cap: "setpoint", Value: v})
			if err != nil {
				return coap.ErrorResponse(coap.CodeBadRequest, err.Error())
			}
			if err := emu.Apply(raw); err != nil {
				return coap.ErrorResponse(coap.CodeInternalServerError, err.Error())
			}
			return &coap.Message{Code: coap.CodeChanged}
		})

	if o.httpAddr != "" {
		serveObservability(o.httpAddr, observabilityMux(mreg, gw, o.pprofOn))
		fmt.Printf("iiotgw: metrics on http://%s/metrics, reads on http://%s/v1/last/... (pprof: %v)\n",
			o.httpAddr, o.httpAddr, o.pprofOn)
	}

	// Sampler: poll the legacy device and publish into the gateway —
	// observers and the HTTP read path both feed from these pushes.
	observers := mreg.Gauge("gw.observers")
	sampleErrs := mreg.Counter("gw.sample_errors")
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(o.sample)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				v, err := readTemp()
				if err != nil {
					sampleErrs.Inc()
					continue
				}
				gw.Publish("devices/press-1/temp", coap.FormatText, []byte(v))
				observers.Set(float64(gw.Stats().Observers))
			}
		}
	}()

	fmt.Printf("iiotgw: CoAP gateway on %s (resources: /.well-known/core; observer cap %d/resource, coalesce %v)\n",
		tr.LocalAddr(), o.obsMax, o.coalesce)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	close(stop)
	fmt.Println("iiotgw: shutting down:", gw.Stats())
}

// runProbe exercises a remote gateway like any standards-based CoAP
// client would.
func runProbe(addr string) {
	tr, err := coap.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "iiotgw: %v\n", err)
		os.Exit(1)
	}
	conn := coap.NewConn(tr, &clock.System{}, coap.ConnConfig{})
	defer conn.Close()

	get := func(path string) string {
		done := make(chan string, 1)
		conn.Get(addr, path, func(m *coap.Message, err error) {
			if err != nil {
				done <- "error: " + err.Error()
				return
			}
			done <- fmt.Sprintf("[%s] %s", m.Code, m.Payload)
		})
		select {
		case s := <-done:
			return s
		case <-time.After(10 * time.Second):
			return "timeout"
		}
	}

	fmt.Println("discovery:", get(".well-known/core"))
	fmt.Println("registry: ", get("registry/devices"))
	fmt.Println("temp:     ", get("devices/press-1/temp"))

	done := make(chan string, 1)
	conn.Put(addr, "devices/press-1/setpoint", coap.FormatText, []byte("42.5"),
		func(m *coap.Message, err error) {
			if err != nil {
				done <- "error: " + err.Error()
				return
			}
			done <- m.Code.String()
		})
	select {
	case s := <-done:
		fmt.Println("setpoint PUT:", s)
	case <-time.After(10 * time.Second):
		fmt.Println("setpoint PUT: timeout")
	}
}

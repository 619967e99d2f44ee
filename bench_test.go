// Package iiotds's root benchmark suite: one testing.B entry per
// experiment in DESIGN.md §3 (each benchmark iteration regenerates that
// experiment's table at Quick scale; run cmd/iiotbench -scale full for
// the paper-scale sweeps), plus micro-benchmarks of the hot codec paths.
//
//	go test -bench=. -benchmem
package main

import (
	"testing"
	"time"

	"iiotds/internal/adapter"
	"iiotds/internal/coap"
	"iiotds/internal/exp"
	"iiotds/internal/lowpan"
	"iiotds/internal/netbuf"
	"iiotds/internal/registry"
	"iiotds/internal/security"
)

// benchExperiment runs one experiment harness per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := runner.Run(exp.Quick)
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1Interop(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2SizeScalability(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3DutyCycleLatency(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4Funneling(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5RNFD(b *testing.B)             { benchExperiment(b, "E5") }
func BenchmarkE6Coexistence(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7Redundancy(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8HVAC(b *testing.B)             { benchExperiment(b, "E8") }
func BenchmarkE9Partitions(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10SelfHealing(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11Security(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE13MixedFleet(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14ChurnSoak(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15CityScale(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16StoreIngest(b *testing.B)     { benchExperiment(b, "E16") }
func BenchmarkF1ThreeTier(b *testing.B)        { benchExperiment(b, "F1") }

// --- micro-benchmarks of the per-message hot paths ---

func BenchmarkCoAPMarshal(b *testing.B) {
	m := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET, MessageID: 7, Token: []byte{1, 2, 3, 4}}
	m.SetPath("sensors/temp/1")
	m.AddUintOption(coap.OptContentFormat, coap.FormatJSON)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoAPUnmarshal(b *testing.B) {
	m := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET, MessageID: 7, Token: []byte{1, 2, 3, 4}}
	m.SetPath("sensors/temp/1")
	data, err := m.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := coap.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowpanFragmentReassemble(b *testing.B) {
	a := lowpan.NewAdaptation(lowpan.Config{})
	a.UsePool(netbuf.NewPool())
	payload := make([]byte, 512)
	d := &lowpan.Datagram{Src: 1, Dst: 2, Proto: lowpan.ProtoCoAP, Payload: payload}
	var scratch []*netbuf.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frames, err := a.Encode(d, scratch[:0])
		if err != nil {
			b.Fatal(err)
		}
		scratch = frames[:0]
		var got *lowpan.Datagram
		for _, f := range frames {
			g, err := a.Feed(0, 1, f.Bytes())
			if err != nil {
				b.Fatal(err)
			}
			if g != nil {
				got = g
			}
			f.Release()
		}
		if got == nil {
			b.Fatal("no reassembly")
		}
	}
}

func BenchmarkAdapterModbusDecode(b *testing.B) {
	mb := adapter.NewModbusAdapter()
	mbMap := adapter.ModbusMap{
		"temp": {Register: 100, Scale: 100, Unit: "C"},
		"rpm":  {Register: 101, Scale: 1, Unit: "rpm"},
	}
	mb.RegisterModel("plc-7", mbMap)
	dev := &registry.Device{ID: "d", Model: "plc-7", Protocol: adapter.ProtocolModbus}
	emu := adapter.NewModbusEmulator(mbMap)
	emu.SetState("temp", 36.5)
	emu.SetState("rpm", 900)
	frame := emu.Frame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mb.Decode(dev, frame, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks for design choices DESIGN.md calls out ---

// BenchmarkAblationAEADOverhead quantifies the per-frame cost of link
// protection (E11's overhead, isolated from the radio).
func BenchmarkAblationAEADOverhead(b *testing.B) {
	ks := security.NewKeyStore()
	if err := ks.Set(1, make([]byte, 16)); err != nil {
		b.Fatal(err)
	}
	tx, err := security.NewChannel(ks, 1)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	var out int
	for i := 0; i < b.N; i++ {
		out += len(tx.Seal(payload, nil))
	}
	b.ReportMetric(float64(out)/float64(b.N)-float64(len(payload)), "overhead-bytes/frame")
}

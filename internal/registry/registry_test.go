package registry

import (
	"errors"
	"testing"
	"time"
)

func device(id DeviceID) *Device {
	return &Device{
		ID: id, Vendor: "v", Model: "m", Protocol: "modbus", Tenant: "acme",
		Caps: []Capability{
			{Name: "temp", Kind: KindSensor, Unit: "C"},
			{Name: "valve", Kind: KindActuator, Unit: "%"},
		},
	}
}

func TestRegisterLookupDeregister(t *testing.T) {
	r := New()
	if err := r.Register(device("d1")); err != nil {
		t.Fatal(err)
	}
	if all := r.All(); len(all) != 1 || all[0].Vendor != "v" {
		t.Fatalf("All = %v", all)
	}
	if err := r.Register(device("d1")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	if err := r.Register(&Device{}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestQueriesSortedAndFiltered(t *testing.T) {
	r := New()
	_ = r.Register(device("b"))
	_ = r.Register(device("a"))
	other := device("c")
	other.Protocol = "blegatt"
	other.Tenant = "globex"
	_ = r.Register(other)

	all := r.All()
	if len(all) != 3 || all[0].ID != "a" || all[2].ID != "c" {
		t.Fatalf("All = %v", all)
	}
	if all[2].Protocol != "blegatt" || all[2].Tenant != "globex" {
		t.Fatalf("All()[2] = %+v", all[2])
	}
}

func TestObservationTopic(t *testing.T) {
	o := Observation{Device: "press-1", Cap: "temp", Value: 20, At: time.Second}
	if o.Topic() != "obs/press-1/temp" {
		t.Fatalf("Topic = %q", o.Topic())
	}
	if KindSensor.String() != "sensor" || KindActuator.String() != "actuator" {
		t.Fatal("kind strings wrong")
	}
}

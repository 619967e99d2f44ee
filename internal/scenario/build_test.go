package scenario

import (
	"testing"
	"time"
)

// TestArmFaultsBothEngines: the flat and the sharded build arm their
// faults through the same code, so the same spec churns the same
// candidates on either engine — nothing is armed before ArmFaults or
// for a spec without faults, arming twice keeps the first engine, and
// the churn it arms crashes and recovers nodes under both time drivers.
func TestArmFaultsBothEngines(t *testing.T) {
	spec := fullSpec()
	spec.WithCoAP, spec.Workload = false, WorkloadSpec{}
	quiet := spec
	quiet.Faults = FaultSpec{}

	flat, striped := Build(spec), BuildSharded(spec, 3)
	engines := []struct {
		name     string
		f        *faults
		arm      func()
		converge func(time.Duration) (bool, time.Duration)
		runFor   func(time.Duration)
	}{
		{"flat", &flat.faults, flat.ArmFaults, flat.D.RunUntilConverged, flat.D.K.RunFor},
		{"stripes=3", &striped.faults, striped.ArmFaults, striped.D.RunUntilConverged, striped.D.G.RunFor},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			if ok, _ := e.converge(2 * time.Minute); !ok {
				t.Fatal("no convergence")
			}
			if e.f.Churn != nil || e.f.Inj != nil || e.f.Ledger != nil {
				t.Fatal("faults armed before ArmFaults")
			}
			e.arm()
			churn := e.f.Churn
			if churn == nil || e.f.Inj == nil || e.f.Ledger == nil {
				t.Fatalf("ArmFaults left %+v", *e.f)
			}
			e.arm()
			if e.f.Churn != churn {
				t.Fatal("second ArmFaults replaced the churn engine")
			}
			churn.Start()
			e.runFor(2 * time.Minute)
			churn.Stop()
			if churn.Crashes() == 0 || churn.Recoveries() == 0 {
				t.Fatalf("churn idle: %d crashes, %d recoveries", churn.Crashes(), churn.Recoveries())
			}
		})
	}

	qf, qs := Build(quiet), BuildSharded(quiet, 3)
	qf.ArmFaults()
	qs.ArmFaults()
	if qf.Churn != nil || qs.Churn != nil {
		t.Fatal("a spec without faults armed a churn engine")
	}
}

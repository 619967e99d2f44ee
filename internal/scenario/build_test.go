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

	engines := map[string]*built{
		"flat":      &Build(spec).built,
		"stripes=3": &BuildSharded(spec, 3).built,
	}
	for name, b := range engines {
		t.Run(name, func(t *testing.T) {
			if ok, _ := b.fleet.RunUntilConverged(2 * time.Minute); !ok {
				t.Fatal("no convergence")
			}
			if b.Churn != nil || b.Inj != nil || b.Ledger != nil {
				t.Fatal("faults armed before ArmFaults")
			}
			b.ArmFaults()
			churn := b.Churn
			if churn == nil || b.Inj == nil || b.Ledger == nil {
				t.Fatalf("ArmFaults left %+v", *b)
			}
			b.ArmFaults()
			if b.Churn != churn {
				t.Fatal("second ArmFaults replaced the churn engine")
			}
			churn.Start()
			b.fleet.RunFor(2 * time.Minute)
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

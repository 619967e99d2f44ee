package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/mac"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// fullSpec is a scenario exercising every workload and the churn engine
// at once — the closest thing to a deployment soak in one spec.
func fullSpec() Spec {
	return Spec{
		Seed:     7,
		Topo:     TopoSpec{Kind: TopoGrid, N: 9},
		WithCoAP: true,
		Soak:     45 * time.Second,
		Drain:    2 * time.Minute,
		Workload: WorkloadSpec{
			ProbeEvery:     5 * time.Second,
			PushEvery:      5 * time.Second,
			AggEpoch:       10 * time.Second,
			HeartbeatEvery: 5 * time.Second,
		},
		Faults: FaultSpec{
			Churn:  NodeSel{Kind: "odd"},
			MeanUp: 25 * time.Second, MinUp: 20 * time.Second,
			MeanDown: 6 * time.Second, MinDown: 5 * time.Second,
		},
	}
}

func TestRunFullScenario(t *testing.T) {
	r := Run(fullSpec(), nil)
	if !r.Converged {
		t.Fatalf("fleet did not converge")
	}
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	if r.Crashes == 0 || r.Recoveries != r.Crashes {
		t.Errorf("churn: %d crashes, %d recoveries", r.Crashes, r.Recoveries)
	}
	if r.ProbeOK == 0 || r.Pushes == 0 || r.PushDelivered == 0 || r.AggEpochs == 0 || r.HeartbeatOK == 0 {
		t.Errorf("workloads idle: %+v", r)
	}
	if r.Repro == "" {
		t.Error("encodable spec produced no reproducer")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, b := Run(fullSpec(), nil), Run(fullSpec(), nil)
	if a.Repro != b.Repro || a.Crashes != b.Crashes || a.Heartbeats != b.Heartbeats ||
		a.Pushes != b.Pushes || a.ProbeOK != b.ProbeOK || a.ConvergeIn != b.ConvergeIn ||
		len(a.Violations) != len(b.Violations) {
		t.Errorf("identical specs diverged:\n %+v\n %+v", a, b)
	}
}

func TestRunHeterogeneousCluster(t *testing.T) {
	spec := Spec{
		Seed: 3,
		Topo: TopoSpec{Kind: TopoCluster, Heads: 3, Members: 2},
		Classes: []ClassSpec{
			{Kind: "csma"},
			{Kind: "lpl", Wake: 250 * time.Millisecond},
		},
		Soak:     30 * time.Second,
		Workload: WorkloadSpec{PushEvery: 5 * time.Second},
	}
	r := Run(spec, nil)
	if !r.Converged {
		t.Fatal("cluster fleet did not converge")
	}
	if r.Failed() {
		t.Fatalf("violations: %v", r.Violations)
	}
	if r.PushDelivered == 0 {
		t.Error("no pushes delivered across the spine")
	}
}

// TestRunIngestStore drives the ingest workload into the sharded store
// through a mid-soak storage-tier partition episode, in both replication
// modes. The run must stay violation-free (store-converges holds after
// heal + drain) and the counters must prove the pipeline was exercised
// end to end: readings left the mesh, reached the root, and were acked
// by the store.
func TestRunIngestStore(t *testing.T) {
	for _, mode := range []string{"ap", "cp"} {
		t.Run(mode, func(t *testing.T) {
			spec := Spec{
				Seed:     9,
				Topo:     TopoSpec{Kind: TopoGrid, N: 9},
				Soak:     60 * time.Second,
				Workload: WorkloadSpec{IngestEvery: 2 * time.Second},
				Store: StoreSpec{
					Mode: mode, Shards: 2, Replicas: 3,
					PartAt: 20 * time.Second, PartHold: 20 * time.Second,
				},
			}
			r := Run(spec, nil)
			if !r.Converged {
				t.Fatal("fleet did not converge")
			}
			for _, v := range r.Violations {
				t.Errorf("violation: %s", v)
			}
			if r.IngestSent == 0 || r.IngestDelivered == 0 || r.IngestAcked == 0 {
				t.Errorf("ingest pipeline idle: sent=%d delivered=%d acked=%d",
					r.IngestSent, r.IngestDelivered, r.IngestAcked)
			}
			if r.IngestFailed != 0 {
				t.Errorf("%d ingest batches failed", r.IngestFailed)
			}
			if !r.StoreConverged {
				t.Error("store replicas did not converge after the partition episode")
			}
		})
	}
}

// TestReplayBugCaught reintroduces the reuse-old-session-after-reboot
// bug family (the PR 5 state-reset class: volatile counters lost in a
// crash while the peer's window survives) and proves the
// replay-monotone invariant convicts it.
func TestReplayBugCaught(t *testing.T) {
	rekeyOnReboot = false
	t.Cleanup(func() { rekeyOnReboot = true })

	spec := fullSpec()
	spec.Workload = WorkloadSpec{HeartbeatEvery: 3 * time.Second}
	spec.WithCoAP = false
	r := Run(spec, nil)
	if !r.Converged {
		t.Fatal("fleet did not converge")
	}
	if r.Crashes == 0 {
		t.Fatal("churn never fired; the bug cannot manifest")
	}
	found := false
	for _, v := range r.Violations {
		if v.Invariant == InvReplay {
			found = true
		} else {
			t.Errorf("unexpected violation: %s", v)
		}
	}
	if !found {
		t.Error("replay-monotone invariant missed the stale-session bug")
	}
}

// deafMAC is a planted defect for the rejoin invariant: the MAC works
// until the first reboot, after which it drops every incoming frame at
// the radio boundary — a device whose receive path does not survive a
// restart.
type deafMAC struct {
	mac.MAC
	deaf bool
}

func (d *deafMAC) RadioReceive(f radio.Frame) {
	if d.deaf {
		return
	}
	d.MAC.(radio.Receiver).RadioReceive(f)
}

func (d *deafMAC) Reboot() {
	d.deaf = true
	d.MAC.Reboot()
}

func plantDeafMAC(s *Spec) {
	s.Factories.MAC = func(m *radio.Medium, id radio.NodeID, p *core.Profile) mac.MAC {
		return &deafMAC{MAC: core.DefaultMAC(m, id, p)}
	}
}

// TestRejoinBugCaught plants the deaf-after-reboot MAC under the full
// scenario and proves the rejoin invariant convicts it.
func TestRejoinBugCaught(t *testing.T) {
	spec := fullSpec()
	plantDeafMAC(&spec)
	r := Run(spec, nil)
	if !r.Converged {
		t.Fatal("fleet did not converge")
	}
	if r.Crashes == 0 {
		t.Fatal("churn never fired; the bug cannot manifest")
	}
	found := false
	for _, v := range r.Violations {
		if v.Invariant == InvRejoin {
			found = true
		}
	}
	if !found {
		t.Errorf("rejoin invariant missed the deaf-after-reboot MAC; violations: %v", r.Violations)
	}
	if r.Repro != "" {
		t.Error("spec with factories must not claim to be encodable")
	}
	if !strings.Contains(reproOf(spec), "non-encodable") {
		t.Error("reproOf should mark factory specs non-encodable")
	}
}

// ballast makes a striped run share windows with its workers on a fleet
// too small to: sharing starts at an events-per-window average a few
// dozen nodes never reach, so every 20 ms each stripe fires a burst of
// no-op events that lifts it for the next several windows. The bursts
// move barriers, which is model-visible — two runs compare only if both
// or neither carry them.
func ballast(ks []*sim.Kernel) {
	for _, k := range ks {
		k.Every(20*time.Millisecond, 0, func() {
			for j := 0; j < 32; j++ {
				k.Schedule(time.Duration(j)*50*time.Microsecond, func() {})
			}
		})
	}
}

// runOn runs spec on the named engine: stripes == 0 is the single
// kernel, otherwise the fleet is striped, ballasted and driven by
// workers threads. On stripes it also holds the engine to its own
// terms: no announced frame arrives after its end, and windows are
// shared exactly when there is more than one worker to share them with.
func runOn(t *testing.T, spec Spec, stripes, workers int) Result {
	t.Helper()
	if stripes == 0 {
		return Run(spec, nil)
	}
	b := BuildSharded(spec, stripes)
	g := b.D.G
	g.SetWorkers(workers)
	ballast(b.D.Kernels())
	r := b.Run(nil)
	if n := b.D.Counter("radio.foreign_late"); n != 0 {
		t.Errorf("%d stripes, %d workers: %v announced frames reached their stripe after they had ended", stripes, workers, n)
	}
	if shared := g.SharedWindows(); (shared > 0) != (g.Workers() > 1) {
		t.Errorf("%d stripes, %d workers (%d effective): %d of %d windows shared", stripes, workers, g.Workers(), shared, g.Windows())
	}
	return r
}

// TestStripedResultIgnoresWorkers is the generated half of "the worker
// count is execution policy": for drawn (spec, stripe count) pairs the
// whole Result on one worker equals the Result on as many workers as
// stripes. The stripe count is an argument to BuildSharded, never part
// of the spec.
func TestStripedResultIgnoresWorkers(t *testing.T) {
	const pairs = 24
	for i := 0; i < pairs; i++ {
		rng := newQuickRng(23, i)
		spec := genSpec(rng)
		stripes := []int{2, 3, 4, 8}[rng.Intn(4)]
		one := runOn(t, spec, stripes, 1)
		all := runOn(t, spec, stripes, stripes)
		if !reflect.DeepEqual(one, all) {
			t.Errorf("%s on %d stripes: 1 worker vs %d diverged:\n %+v\n %+v", reproOf(spec), stripes, stripes, one, all)
		}
	}
}

// TestRunOnEitherEngine is the scenario engine's half of the fleet
// contract: one spec with every workload, churn and a storage-tier
// partition episode runs through the same body on one kernel, one
// stripe and three stripes, holds every invariant there (all but the
// recorder-fed causal scan are evaluated on stripes), exercises every
// workload, and — the worker count being execution policy — produces
// the same result on one thread as on three.
func TestRunOnEitherEngine(t *testing.T) {
	for _, mode := range []string{"ap", "cp"} {
		spec := fullSpec()
		spec.Soak = 60 * time.Second
		spec.Workload.IngestEvery = 4 * time.Second
		spec.Store = StoreSpec{Mode: mode, PartAt: 20 * time.Second, PartHold: 20 * time.Second}
		for _, e := range []struct {
			name    string
			stripes int
		}{{"flat", 0}, {"stripes=1", 1}, {"stripes=3", 3}} {
			t.Run(mode+"/"+e.name, func(t *testing.T) {
				r := runOn(t, spec, e.stripes, 1)
				if !r.Converged {
					t.Fatal("fleet did not converge")
				}
				for _, v := range r.Violations {
					t.Errorf("violation: %s", v)
				}
				if r.Crashes == 0 || r.Recoveries != r.Crashes {
					t.Errorf("churn: %d crashes, %d recoveries", r.Crashes, r.Recoveries)
				}
				if r.ProbeOK == 0 || r.Pushes == 0 || r.PushDelivered == 0 || r.AggEpochs == 0 ||
					r.Heartbeats == 0 || r.HeartbeatOK == 0 ||
					r.IngestSent == 0 || r.IngestDelivered == 0 || r.IngestAcked == 0 || !r.StoreConverged {
					t.Errorf("workloads idle: %+v", r)
				}
				if (r.Trace != nil) != (e.stripes == 0) {
					t.Errorf("recorder present = %v on %s", r.Trace != nil, e.name)
				}
				if e.stripes > 1 {
					if par := runOn(t, spec, e.stripes, e.stripes); !reflect.DeepEqual(par, r) {
						t.Errorf("1 worker vs %d workers diverged:\n %+v\n %+v", e.stripes, r, par)
					}
				}
			})
		}
	}
}

// TestRejoinBugCaughtOnStripes: the invariants are not decoration on the
// sharded engine — the deaf-after-reboot MAC that TestRejoinBugCaught
// plants on one kernel is convicted on three.
func TestRejoinBugCaughtOnStripes(t *testing.T) {
	spec := fullSpec()
	plantDeafMAC(&spec)
	r := runOn(t, spec, 3, 3)
	if !r.Converged || r.Crashes == 0 {
		t.Fatalf("converged=%v crashes=%d; the bug cannot manifest", r.Converged, r.Crashes)
	}
	found := false
	for _, v := range r.Violations {
		found = found || v.Invariant == InvRejoin
	}
	if !found {
		t.Errorf("rejoin invariant missed the deaf-after-reboot MAC on 3 stripes; violations: %v", r.Violations)
	}
}

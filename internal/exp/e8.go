package exp

import (
	"fmt"

	"iiotds/internal/hvac"
	"iiotds/internal/trial"
)

// E8HVAC runs the paper's §V-B worked example: three control policies on
// the same building week, showing safety as a continuum — soft comfort
// margins that flex with occupancy, deliberately traded against energy,
// with the provider's revenue coupled to both.
func E8HVAC(s Scale) *Table {
	cfg := hvac.DefaultSimConfig()
	if s == Quick {
		cfg.Days = 3
	} else {
		cfg.Days = 14
	}

	t := &Table{
		ID:      "E8",
		Title:   "HVAC comfort/energy trade-off across control policies",
		Claim:   "§V-B: soft safety margins can vary with occupancy and be deliberately violated to save energy, with revenue tied to both",
		Columns: []string{"controller", "energy (kWh)", "comfort violations (min)", "severity (°C·min)", "net revenue"},
	}

	// hvac.Simulate is self-contained (its RNG comes from cfg.Seed), so
	// the three policies run as parallel trials.
	results, rs := trial.Sweep(hvac.Controllers(), func(_ *trial.Trial, c hvac.Controller) hvac.Result {
		return hvac.Simulate(c, cfg)
	})
	t.Stats = rs
	baseline := results[0].EnergyKWh // strict = the no-savings reference
	const (
		pricePerKWh      = 0.20
		penaltyPerDegMin = 0.002
	)
	var revenues []float64
	for _, r := range results {
		rev := pricePerKWh*(baseline-r.EnergyKWh) - penaltyPerDegMin*r.SeverityDegMin
		revenues = append(revenues, rev)
		t.AddRow(r.Controller, f1(r.EnergyKWh), f1(r.ComfortViolationMin), f1(r.SeverityDegMin),
			fmt.Sprintf("%+.2f", rev))
	}

	best, bestIdx := revenues[0], 0
	for i, r := range revenues {
		if r > best {
			best, bestIdx = r, i
		}
	}
	t.Finding = fmt.Sprintf(
		"occupancy-aware margins save %.0f%% energy vs strict (%.1f vs %.1f kWh) at %.0f min of comfort violations; %q maximizes contract revenue",
		(1-results[2].EnergyKWh/results[0].EnergyKWh)*100,
		results[2].EnergyKWh, results[0].EnergyKWh,
		results[2].ComfortViolationMin, results[bestIdx].Controller)
	return t
}

package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestRunArgvIsBenchmarkCommand holds every run to what the pipeline
// runs: BENCHMARK.json's command, unchanged, followed only by the
// workload flags.
func TestRunArgvIsBenchmarkCommand(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Command) == 0 {
		t.Fatal("BENCHMARK.json has no command")
	}
	argv := runArgv(bf.Command, "gw-fanout", 11)
	want := append(slices.Clone(bf.Command), "-workload", "gw-fanout", "-seed", "11", "-trace", "0")
	if !slices.Equal(argv, want) {
		t.Fatalf("argv %q, want %q", argv, want)
	}
	// A command with spare capacity is not shared between two argvs.
	roomy := append(make([]string, 0, len(bf.Command)+8), bf.Command...)
	first := runArgv(roomy, "gw-fanout", 11)
	runArgv(roomy, "store-fleet", 7)
	if !slices.Equal(first, want) {
		t.Fatalf("argv %q after a second one was built, want %q", first, want)
	}
}

package cli

import (
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
)

func TestParseMachineSpecs(t *testing.T) {
	cases := []struct {
		spec     string
		clusters int
		network  machine.Network
	}{
		{"gp:2:2:1", 2, machine.Broadcast},
		{"gp:8:7:3", 8, machine.Broadcast},
		{"fs:4:4:2", 4, machine.Broadcast},
		{"grid:2", 4, machine.PointToPoint},
		{"ring:6:2", 6, machine.PointToPoint},
		{"unified:16", 1, machine.Broadcast},
		{"gp:64:64:64", 64, machine.Broadcast},
		{"ring:64:64", 64, machine.PointToPoint},
		{"unified:64", 1, machine.Broadcast},
	}
	for _, tc := range cases {
		m, err := ParseMachine(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: invalid machine: %v", tc.spec, err)
		}
		if m.NumClusters() != tc.clusters || m.Network != tc.network {
			t.Errorf("%s: got %d clusters / %v", tc.spec, m.NumClusters(), m.Network)
		}
	}
}

func TestParseMachineErrors(t *testing.T) {
	for _, spec := range []string{
		"gp:2:2", "gp:a:b:c", "fs:1", "grid", "grid:1:2", "ring:4",
		"unified", "vliw:4:4:2", "",
		// Counts outside 0..64: negative, or beyond the 64-bit lane
		// masks of the reservation table and the assigner.
		"unified:-1", "gp:-1:1:1", "gp:2:65:1", "gp:2:1:65", "gp:65:1:1",
		"ring:65:1", "grid:65", "unified:65", "gp:2:2:99999999999",
	} {
		if _, err := ParseMachine(spec); err == nil {
			t.Errorf("ParseMachine(%q) accepted bad spec", spec)
		}
	}
}

func TestParseVariant(t *testing.T) {
	cases := map[string]assign.Variant{
		"simple":              assign.Simple,
		"Simple-Iterative":    assign.SimpleIterative,
		"heuristic":           assign.Heuristic,
		"HEURISTIC-ITERATIVE": assign.HeuristicIterative,
	}
	for s, want := range cases {
		got, err := ParseVariant(s)
		if err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseVariant("optimal"); err == nil || !strings.Contains(err.Error(), "unknown variant") {
		t.Errorf("bad variant accepted: %v", err)
	}
}

func TestParseScheduler(t *testing.T) {
	if s, err := ParseScheduler("IMS"); err != nil || s != pipeline.IMS {
		t.Errorf("ParseScheduler(IMS) = %v, %v", s, err)
	}
	if s, err := ParseScheduler("sms"); err != nil || s != pipeline.SMS {
		t.Errorf("ParseScheduler(sms) = %v, %v", s, err)
	}
	if _, err := ParseScheduler("greedy"); err == nil {
		t.Error("bad scheduler accepted")
	}
}

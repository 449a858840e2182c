package diag

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestSeverityString(t *testing.T) {
	cases := map[Severity]string{Error: "error", Warning: "warning", Info: "info", Severity(9): "severity(9)"}
	for sev, want := range cases {
		if got := sev.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(sev), got, want)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: "DDG006", Severity: Error, Message: "cycle", File: "a.loop", Line: 3, Subject: "nodes [1 2]"}
	want := "a.loop:3: error DDG006: cycle [nodes [1 2]]"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	d2 := Diagnostic{Code: "MACH001", Severity: Warning, Message: "m", Line: 7}
	if got := d2.String(); got != "line 7: warning MACH001: m" {
		t.Errorf("String() = %q", got)
	}
	d3 := Diagnostic{Code: "X001", Severity: Info, Message: "m"}
	if got := d3.String(); got != "info X001: m" {
		t.Errorf("String() = %q", got)
	}
}

func TestReporterCollects(t *testing.T) {
	var r Reporter
	r.Errorf("E001", "node 1", "bad node %d", 1)
	r.Warnf("W001", "", "suspicious")
	r.Infof("I001", "", "fyi")
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if got := CountErrors(r.Diagnostics()); got != 1 {
		t.Errorf("CountErrors = %d, want 1", got)
	}
	if got := len(Filter(r.Diagnostics(), Warning)); got != 1 {
		t.Errorf("Filter(Warning) = %d findings, want 1", got)
	}
}

func TestAsErrorNilWithoutErrors(t *testing.T) {
	if err := AsError(nil); err != nil {
		t.Errorf("AsError(nil) = %v, want nil", err)
	}
	warnOnly := []Diagnostic{{Code: "W001", Severity: Warning, Message: "w"}}
	if err := AsError(warnOnly); err != nil {
		t.Errorf("AsError(warnings) = %v, want nil", err)
	}
}

func TestAsErrorCarriesAllDiagnostics(t *testing.T) {
	diags := []Diagnostic{
		{Code: "E001", Severity: Error, Message: "first"},
		{Code: "W001", Severity: Warning, Message: "side note"},
		{Code: "E002", Severity: Error, Message: "second"},
	}
	err := AsError(diags)
	if err == nil {
		t.Fatal("AsError = nil, want error")
	}
	var list *List
	if !errors.As(err, &list) {
		t.Fatalf("error %T does not unwrap to *List", err)
	}
	if len(list.Diags) != 3 {
		t.Errorf("List carries %d diagnostics, want 3", len(list.Diags))
	}
	msg := err.Error()
	if !strings.Contains(msg, "E001: first") || !strings.Contains(msg, "and 1 more") {
		t.Errorf("Error() = %q, want first error plus count", msg)
	}
}

func TestSortOrdersByLocationThenSeverity(t *testing.T) {
	diags := []Diagnostic{
		{Code: "B", Severity: Warning, File: "b.loop", Line: 1},
		{Code: "A", Severity: Warning, File: "a.loop", Line: 9},
		{Code: "C", Severity: Error, File: "a.loop", Line: 9},
	}
	Sort(diags)
	if diags[0].File != "a.loop" || diags[0].Code != "C" {
		t.Errorf("Sort order wrong: %+v", diags)
	}
	if diags[2].File != "b.loop" {
		t.Errorf("Sort order wrong: %+v", diags)
	}
}

func TestExitCode(t *testing.T) {
	errOnly := []Diagnostic{{Code: "E", Severity: Error}}
	warnOnly := []Diagnostic{{Code: "W", Severity: Warning}}
	infoOnly := []Diagnostic{{Code: "I", Severity: Info}}
	cases := []struct {
		name   string
		diags  []Diagnostic
		werror bool
		want   int
	}{
		{"clean", nil, false, 0},
		{"clean werror", nil, true, 0},
		{"errors", errOnly, false, 1},
		{"warnings lenient", warnOnly, false, 0},
		{"warnings strict", warnOnly, true, 1},
		{"info strict", infoOnly, true, 0},
		{"mixed", append(append([]Diagnostic{}, warnOnly...), errOnly...), false, 1},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.diags, tc.werror); got != tc.want {
			t.Errorf("%s: ExitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestMultiPassAggregationOrdering models two analysis passes reporting
// into separate reporters whose findings are concatenated and sorted:
// the result must interleave by location, and findings with identical
// sort keys must keep their per-pass report order (Sort is stable).
func TestMultiPassAggregationOrdering(t *testing.T) {
	var passA, passB Reporter
	passA.Errorf("VET010", "f", "a first at ten")
	passA.Errorf("VET010", "f", "a second at ten")
	passB.Errorf("VET001", "f", "b at one")
	aDiags := passA.Diagnostics()
	bDiags := passB.Diagnostics()
	aDiags[0].File, aDiags[0].Line = "x.go", 10
	aDiags[1].File, aDiags[1].Line = "x.go", 10
	bDiags[0].File, bDiags[0].Line = "x.go", 4

	all := append(append([]Diagnostic{}, aDiags...), bDiags...)
	Sort(all)
	if all[0].Code != "VET001" {
		t.Errorf("aggregated order wrong, got %v first", all[0])
	}
	if all[1].Message != "a first at ten" || all[2].Message != "a second at ten" {
		t.Errorf("Sort not stable for equal keys: %v, %v", all[1], all[2])
	}

	// Aggregation is deterministic in the other concatenation order
	// too, except for genuinely identical sort keys.
	rev := append(append([]Diagnostic{}, bDiags...), aDiags...)
	Sort(rev)
	for i := range all {
		if all[i] != rev[i] {
			t.Errorf("aggregation order depends on pass order at %d: %v vs %v", i, all[i], rev[i])
		}
	}
}

func TestTextRendering(t *testing.T) {
	var buf bytes.Buffer
	diags := []Diagnostic{
		{Code: "DDG006", Severity: Error, Message: "cycle", File: "x.ddg", Line: 2, Fix: "break it"},
	}
	if err := Text(&buf, diags); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "x.ddg:2: error DDG006: cycle") || !strings.Contains(out, "fix: break it") {
		t.Errorf("Text output = %q", out)
	}
}

func TestJSONRendering(t *testing.T) {
	var buf bytes.Buffer
	diags := []Diagnostic{{Code: "MACH003", Severity: Error, Message: "orphan kind", Subject: "kind load"}}
	if err := JSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var back []Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(back) != 1 || back[0].Code != "MACH003" || back[0].Severity != Error {
		t.Errorf("round trip = %+v", back)
	}
	if !strings.Contains(buf.String(), `"severity": "error"`) {
		t.Errorf("severity not rendered as string: %s", buf.String())
	}
}

func TestJSONEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := JSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("JSON(nil) = %q, want []", got)
	}
}

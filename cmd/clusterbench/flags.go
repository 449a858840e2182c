package main

import (
	"sort"
	"strings"

	"clustersched/internal/diag"
)

// modeFlags are the mutually exclusive run modes of clusterbench; the
// first one the dispatch chain in main recognizes wins, so naming two
// would silently ignore the rest.
var modeFlags = []string{"table1", "fleet", "markdown", "livermore", "registers"}

// flagConflicts validates the combination of explicitly-set flags,
// returning coded diagnostics (CLI001..CLI005, catalogued in
// docs/DIAGNOSTICS.md) for combinations that would silently ignore a
// flag. set holds the names the user passed on the command line.
func flagConflicts(set map[string]bool) []diag.Diagnostic {
	var diags []diag.Diagnostic
	var modes []string
	for _, m := range modeFlags {
		if set[m] {
			modes = append(modes, "-"+m)
		}
	}
	if len(modes) > 1 {
		diags = append(diags, diag.Diagnostic{
			Code:     "CLI001",
			Severity: diag.Error,
			Message:  "flags " + strings.Join(modes, " and ") + " select conflicting run modes",
			Fix:      "pass exactly one run-mode flag",
		})
	}

	if set["fleet"] {
		for _, f := range []string{"trace", "stats", "workers", "warmstart"} {
			if set[f] {
				diags = append(diags, diag.Diagnostic{
					Code:     "CLI002",
					Severity: diag.Error,
					Message:  "-" + f + " has no effect with -fleet: scheduling runs in the daemon process",
					Fix:      "profile or trace the clusterd process instead",
				})
			}
		}
	}

	if set["table1"] {
		for _, f := range []string{"scheduler", "stats", "trace", "warmstart", "workers", "exp"} {
			if set[f] {
				diags = append(diags, diag.Diagnostic{
					Code:     "CLI003",
					Severity: diag.Error,
					Message:  "-" + f + " has no effect with -table1: nothing is scheduled",
					Fix:      "drop -table1 to run the experiments",
				})
			}
		}
	}

	// -benchreps and -basetol tune the fleet replay alone.
	for _, o := range []struct{ flag, code string }{{"benchreps", "CLI004"}, {"basetol", "CLI005"}} {
		if set[o.flag] && !set["fleet"] {
			diags = append(diags, diag.Diagnostic{
				Code:     o.code,
				Severity: diag.Error,
				Message:  "-" + o.flag + " has no effect without -fleet",
				Fix:      "add -fleet, or drop -" + o.flag,
			})
		}
	}

	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Code < diags[j].Code })
	return diags
}

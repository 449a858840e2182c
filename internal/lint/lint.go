// Package lint implements the static-analysis passes that gate the
// scheduling pipeline: data-dependence-graph well-formedness, machine
// configuration validation, and loop-language lint over the frontend
// AST. Each pass returns structured diagnostics (package diag) with
// stable codes; docs/DIAGNOSTICS.md catalogues all of them.
//
// The passes layer advisory findings (warnings, infos) on top of the
// hard structural checks owned by ddg.Graph.Lint and
// machine.Config.Lint: an input with Error-severity findings produces
// garbage assignments or crashes downstream, while warnings flag
// legal-but-suspect inputs (dead values, isolated nodes, unused
// fabric) that usually indicate a mistake.
package lint

import (
	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/frontend"
	"clustersched/internal/machine"
)

// Input runs the graph and machine passes a pipeline run depends on
// and returns their combined findings. The pipeline rejects the run
// when any finding is Error severity, before assignment starts.
func Input(g *ddg.Graph, m *machine.Config) []diag.Diagnostic {
	diags := Graph(g)
	diags = append(diags, Machine(m)...)
	return diags
}

// Program lints loop-language source: the AST lint first and, when
// the source parses, the graph lint over every compiled loop. A source
// that parses but does not compile (e.g. an unschedulable recurrence
// detected by graph validation) yields a CodeParseError finding
// carrying the compiler's message.
func Program(file, src string) []diag.Diagnostic {
	diags := Source(file, src)
	if diag.CountErrors(diags) > 0 {
		return diags // does not parse; nothing to compile
	}
	loops, err := frontend.Compile(src)
	if err != nil {
		return append(diags, diag.Diagnostic{
			Code: CodeParseError, Severity: diag.Error,
			File: file, Message: err.Error(),
		})
	}
	for _, l := range loops {
		diags = append(diags, Loop(file, l.Name, l.Graph)...)
	}
	return diags
}

// Loop runs the graph pass over loop name's graph and attributes each
// finding to the file and the loop.
func Loop(file, name string, g *ddg.Graph) []diag.Diagnostic {
	diags := Graph(g)
	for i := range diags {
		diags[i].File = file
		if diags[i].Subject == "" {
			diags[i].Subject = "loop " + name
		} else {
			diags[i].Subject = "loop " + name + ", " + diags[i].Subject
		}
	}
	return diags
}

package flow

import (
	"fmt"
	"strings"

	"statebench/internal/core"
)

// LintFinding flags one edge whose declared payload estimate exceeds a
// registered lowerer's payload cap — the 256 KB SFN and 64 KB Durable
// limits the paper measures. The lint is static (estimates, not
// runtime payloads) and advisory: a workload may deliberately ride the
// cap, which is exactly the regime the paper studies.
type LintFinding struct {
	Impl  core.Impl
	Class Class
	// Edge names the flagged edge: "-> Node" (input) or "Node ->"
	// (output).
	Edge  string
	Bytes int
	Cap   int
}

func (f LintFinding) String() string {
	return fmt.Sprintf("%s [%s]: edge %s carries ~%d B, provider cap %d B",
		f.Impl, f.Class, f.Edge, f.Bytes, f.Cap)
}

// LintPayloads checks every registered lowerer's payload cap against
// the declared input/output estimates of the definition's graphs.
// Findings are ordered by lowerer registration order, then node order.
func LintPayloads(def *Definition) []LintFinding {
	var out []LintFinding
	for _, impl := range lowererOrder {
		l := lowererRegistry[impl]
		cap := l.Caps().PayloadBytes
		if cap <= 0 {
			continue
		}
		g := graphFor(def, l)
		if g == nil {
			continue
		}
		for _, n := range Nodes(g) {
			if n.InEst > cap {
				out = append(out, LintFinding{Impl: impl, Class: g.Class, Edge: "-> " + n.Name, Bytes: n.InEst, Cap: cap})
			}
			if n.OutEst > cap {
				out = append(out, LintFinding{Impl: impl, Class: g.Class, Edge: n.Name + " ->", Bytes: n.OutEst, Cap: cap})
			}
		}
	}
	return out
}

// LintReport renders findings one per line ("(payload lint clean)"
// when empty) for goldens and the graph subcommand.
func LintReport(def *Definition) string {
	findings := LintPayloads(def)
	if len(findings) == 0 {
		return "(payload lint clean)\n"
	}
	var sb strings.Builder
	for _, f := range findings {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

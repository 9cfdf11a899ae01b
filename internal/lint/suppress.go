// Suppression syntax:
//
//	//slimlint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line immediately above it. The
// analyzer name must match the finding ("suppression" directives are
// per-analyzer on purpose: a line excused from determinism is still
// checked for lock order). The reason is mandatory and free-form; a
// directive without one does not suppress and is itself reported, as is a
// directive that matches nothing — stale excuses rot into lies.
package lint

import (
	"fmt"
	"go/token"
	"strings"
)

const ignorePrefix = "slimlint:ignore"

// directive is one parsed //slimlint:ignore comment.
type directive struct {
	file     string // module-relative
	line     int
	analyzer string
	reason   string
	pos      token.Pos
	used     bool
}

// parseDirectives extracts every slimlint directive in the package.
func parseDirectives(p *Package) []*directive {
	var out []*directive
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				d := &directive{file: p.relPath(pos.Filename), line: pos.Line, pos: c.Pos()}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					d.analyzer = fields[0]
					d.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// applySuppressions filters findings covered by a valid directive and
// appends findings for invalid or unused directives.
func applySuppressions(pkgs []*Package, findings []Finding) []Finding {
	byFileLine := map[string][]*directive{}
	var all []*directive
	for _, p := range pkgs {
		for _, d := range parseDirectives(p) {
			key := fmt.Sprintf("%s:%d", d.file, d.line)
			byFileLine[key] = append(byFileLine[key], d)
			all = append(all, d)
		}
	}

	var kept []Finding
	for _, f := range findings {
		suppressed := false
		// A directive suppresses findings on its own line and on the line
		// below it (the comment-above form).
		for _, line := range []int{f.Line, f.Line - 1} {
			for _, d := range byFileLine[fmt.Sprintf("%s:%d", f.File, line)] {
				if d.analyzer != f.Analyzer {
					continue
				}
				if d.reason == "" {
					continue // invalid directive: reported below, does not suppress
				}
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}

	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, d := range all {
		switch {
		case d.analyzer == "" || d.reason == "":
			kept = append(kept, Finding{
				Analyzer: "suppression", File: d.file, Line: d.line, Col: 1,
				Message: fmt.Sprintf("malformed directive — want //%s <analyzer> <reason>, the reason is mandatory", ignorePrefix),
			})
		case !known[d.analyzer]:
			kept = append(kept, Finding{
				Analyzer: "suppression", File: d.file, Line: d.line, Col: 1,
				Message: fmt.Sprintf("unknown analyzer %q in directive (have: %s)", d.analyzer, strings.Join(AnalyzerNames(), ", ")),
			})
		case !d.used:
			kept = append(kept, Finding{
				Analyzer: "suppression", File: d.file, Line: d.line, Col: 1,
				Message: fmt.Sprintf("unused %s suppression — the finding it excused is gone; delete the directive", d.analyzer),
			})
		}
	}
	return kept
}

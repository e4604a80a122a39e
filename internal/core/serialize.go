package core

import (
	"errors"
	"fmt"
	"strings"

	"awam/internal/domain"
	"awam/internal/term"
)

// Marshal renders an analysis result as a line-oriented text summary,
// the analogue of the ".pan" files batch analyzers write so compilation
// can consume dataflow facts without re-analyzing. Unmarshal reads it
// back; MarshalText/Unmarshal round-trip exactly (tested on the
// benchmark suites).
//
// The output is a pure function of the analysis result: run statistics
// are not embedded (they vary with the fixpoint strategy and schedule,
// and the summary must be byte-identical across them). Unmarshal still
// accepts the "stats steps=N iterations=N" line older summaries carried.
//
// Format:
//
//	awam-analysis 1
//	call p(atom, list(g))
//	succ p(atom, [f(g)|list(g)])
//	call q(g)
//	succ bottom
func (r *Result) Marshal() string {
	var b strings.Builder
	texts := domain.NewPatternTexts(r.Tab, r.Texts)
	r.MarshalTo(&b, texts)
	texts.Share()
	return b.String()
}

// MarshalTo writes Marshal's text to b, rendering patterns with texts,
// which must be over r.Tab.
func (r *Result) MarshalTo(b *strings.Builder, texts *domain.PatternTexts) {
	b.WriteString("awam-analysis 1\n")
	for _, e := range r.Entries {
		b.WriteString("call ")
		b.WriteString(texts.Text(e.CP))
		b.WriteString("\nsucc ")
		b.WriteString(texts.Text(e.Succ))
		b.WriteByte('\n')
	}
}

// ErrBadSummary reports a malformed serialized analysis summary. Every
// Unmarshal failure wraps it (errors.Is), so callers that parse
// untrusted bytes — the disk-backed summary cache, the analysis daemon —
// can branch without string matching.
var ErrBadSummary = errors.New("core: malformed analysis summary")

// maxSummaryLine bounds one summary line; longer lines are rejected
// rather than buffered without limit (Unmarshal now parses disk-cache
// and network bytes, not just our own Marshal output).
const maxSummaryLine = 1 << 20

// Unmarshal parses a summary produced by Marshal, interning names into
// tab. Table internals (lookup counts) are not restored; a legacy stats
// line, when present, fills Steps/Iterations.
//
// The input is validated structurally, not just syntactically: every
// call line must be followed by exactly one succ line, a calling
// pattern may appear at most once, and lines outside the format are
// rejected. All failures wrap ErrBadSummary; hostile input returns an
// error, never a panic (FuzzUnmarshal).
func Unmarshal(tab *term.Tab, text string) (*Result, error) {
	return UnmarshalCached(tab, text, nil)
}

// UnmarshalCached is Unmarshal with a caller-supplied pattern memo
// (text → parsed pattern, all in tab). The incremental engine decodes
// thousands of per-component records against one symbol table, and the
// same pattern text recurs across them — a callee's calling pattern
// reappears in every caller's record — so sharing a memo across the
// batch skips both the re-parse and (because Pattern.Key memoizes on
// the shared node) the canonical-key recomputation. Patterns are
// immutable once built; handing one tree to several entries is safe.
// A nil memo is valid and disables caching. Parse failures are not
// memoized.
func UnmarshalCached(tab *term.Tab, text string, memo map[string]*domain.Pattern) (*Result, error) {
	parse := func(src string) (*domain.Pattern, error) {
		if p := memo[src]; p != nil {
			return p, nil
		}
		p, err := domain.ParseAbsQuick(tab, src)
		if err == nil && memo != nil {
			memo[src] = p
		}
		return p, err
	}
	// Lines are walked with strings.Cut rather than a bufio.Scanner:
	// Unmarshal decodes thousands of small cache records per warm
	// analysis, and a scanner's line buffer allocation per call was the
	// single largest cost of the incremental engine's load path.
	header, rest, _ := strings.Cut(text, "\n")
	if len(header) > maxSummaryLine || strings.TrimSpace(header) != "awam-analysis 1" {
		return nil, fmt.Errorf("%w: not an awam-analysis v1 summary", ErrBadSummary)
	}
	res := &Result{Tab: tab}
	seen := make(map[string]bool)
	var current *Entry
	lineNo := 1
	for len(rest) > 0 {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		if len(line) > maxSummaryLine {
			return nil, fmt.Errorf("%w: line %d exceeds %d bytes", ErrBadSummary, lineNo, maxSummaryLine)
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "stats "):
			if _, err := fmt.Sscanf(line, "stats steps=%d iterations=%d",
				&res.Steps, &res.Iterations); err != nil {
				return nil, fmt.Errorf("%w: line %d: bad stats: %v", ErrBadSummary, lineNo, err)
			}
		case strings.HasPrefix(line, "call "):
			if current != nil {
				return nil, fmt.Errorf("%w: line %d: call without preceding succ", ErrBadSummary, lineNo)
			}
			cp, err := parse(strings.TrimPrefix(line, "call "))
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadSummary, lineNo, err)
			}
			if key := cp.Key(); seen[key] {
				return nil, fmt.Errorf("%w: line %d: duplicate call %s",
					ErrBadSummary, lineNo, domain.PatternText(tab, cp))
			} else {
				seen[key] = true
			}
			// No interner in scope: loaded entries carry no ID (the engine
			// never feeds them back into a fixpoint); Key() still works
			// through CP for display and comparison.
			current = &Entry{CP: cp}
			res.Entries = append(res.Entries, current)
		case strings.HasPrefix(line, "succ "):
			if current == nil {
				return nil, fmt.Errorf("%w: line %d: succ before call", ErrBadSummary, lineNo)
			}
			body := strings.TrimPrefix(line, "succ ")
			if body != "bottom" {
				sp, err := parse(body)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: %v", ErrBadSummary, lineNo, err)
				}
				current.Succ = sp
			}
			current = nil
		default:
			return nil, fmt.Errorf("%w: line %d: unrecognized line %q", ErrBadSummary, lineNo, line)
		}
	}
	if current != nil {
		return nil, fmt.Errorf("%w: truncated: call %s has no succ line",
			ErrBadSummary, domain.PatternText(tab, current.CP))
	}
	res.TableSize = len(res.Entries)
	return res, nil
}

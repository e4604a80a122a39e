package inc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/term"
)

// A record is the cached artifact for one component: every (calling
// pattern, success pattern) pair the analysis presented for the
// component's predicates, plus each entry's finalize-phase consultation
// trace. The summary block reuses the core Marshal/Unmarshal format
// verbatim, with a trace section appended:
//
//	awam-scc 1
//	awam-analysis 1
//	call p(g, var)
//	succ p(g, g)
//	trace 0 2
//	dep q(g)
//	dep r(list(g), var)
//
// "trace i n" attaches the following n "dep" lines to the i-th call of
// the summary block. Patterns are stored as text (domain.PatternText):
// canonical keys embed interned atom numbers and never cross a table
// boundary. The engine parses a record into its private symbol table
// and keeps it decoded while the stored bytes stay the same
// (decoded.go).

// ErrBadRecord reports a malformed cache record. Decode failures wrap
// it (and, for the summary block, core.ErrBadSummary too); the engine
// treats them as cache misses, never as analysis errors.
var ErrBadRecord = errors.New("inc: malformed summary record")

// recordHeader is the version line; bump with fpFormat when the record
// layout changes.
const recordHeader = "awam-scc 1"

// RecordEntry is one decoded cache line: a converged calling pattern →
// success pattern pair and the finalize trace that replays it. Succ nil
// means converged bottom (the call cannot succeed).
type RecordEntry struct {
	CP   *domain.Pattern
	Succ *domain.Pattern
	Deps []*domain.Pattern
}

// EncodeRecord serializes converged entries (with their finalize
// Consults traces) into a cacheable record. The entries must all come
// from one finished worklist analysis over tab.
func EncodeRecord(tab *term.Tab, entries []*core.Entry) []byte {
	return encodeRecord(tab, entries, nil)
}

// encodeRecord is EncodeRecord rendering patterns through memo (see
// domain.NewPatternTexts).
func encodeRecord(tab *term.Tab, entries []*core.Entry, memo domain.TextMemo) []byte {
	texts := domain.NewPatternTexts(tab, memo)
	var b strings.Builder
	b.WriteString(recordHeader)
	b.WriteByte('\n')
	(&core.Result{Tab: tab, Entries: entries}).MarshalTo(&b, texts)
	for i, e := range entries {
		fmt.Fprintf(&b, "trace %d %d\n", i, len(e.Consults))
		for _, dep := range e.Consults {
			b.WriteString("dep ")
			b.WriteString(texts.Text(dep))
			b.WriteByte('\n')
		}
	}
	texts.Share()
	return []byte(b.String())
}

// DecodeRecord parses a record produced by EncodeRecord, interning
// pattern names into tab. The summary block is validated by
// core.Unmarshal (structure, duplicate calls, truncation); the trace
// section must reference every entry exactly once with its exact dep
// count. Any failure wraps ErrBadRecord.
func DecodeRecord(tab *term.Tab, data []byte) ([]RecordEntry, error) {
	return decodeRecord(tab, data, nil)
}

// decodeRecord is DecodeRecord with an optional dep-pattern memo. A
// callee's calling pattern recurs as a "dep" line in every caller's
// trace, so a warm load that decodes thousands of records re-parses the
// same texts over and over; the engine shares one memo (text → parsed
// pattern, same symbol table) across the whole load. Patterns are
// immutable once built, so aliasing one node across entries is safe —
// the interner quotients them to shared representatives downstream
// anyway.
func decodeRecord(tab *term.Tab, data []byte, memo map[string]*domain.Pattern) ([]RecordEntry, error) {
	// Lines are walked with a cursor rather than strings.Split: decoding
	// runs once per served component on every warm analysis, and the
	// line-slice plus re-Join of the summary block dominated it. The
	// summary block is handed to core.Unmarshal as a slice of the record
	// text, not a copy.
	text := string(data)
	header, rest, _ := strings.Cut(text, "\n")
	if strings.TrimSpace(header) != recordHeader {
		return nil, fmt.Errorf("%w: not an %s record", ErrBadRecord, recordHeader)
	}
	pos, lineNo := 0, 1
	next := func() (string, bool) {
		if pos >= len(rest) {
			return "", false
		}
		var line string
		if nl := strings.IndexByte(rest[pos:], '\n'); nl < 0 {
			line, pos = rest[pos:], len(rest)
		} else {
			line, pos = rest[pos:pos+nl], pos+nl+1
		}
		lineNo++
		return line, true
	}
	// The summary block runs until the first trace line.
	bodyEnd := len(rest)
	var line string
	inTrace := false
	for {
		start := pos
		l, more := next()
		if !more {
			break
		}
		if strings.HasPrefix(strings.TrimSpace(l), "trace ") {
			bodyEnd, line, inTrace = start, l, true
			break
		}
	}
	res, err := core.UnmarshalCached(tab, rest[:bodyEnd], memo)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRecord, err)
	}
	out := make([]RecordEntry, len(res.Entries))
	for i, e := range res.Entries {
		out[i] = RecordEntry{CP: e.CP, Succ: e.Succ}
	}
	seen := make(map[int]bool)
	for ; inTrace; line, inTrace = next() {
		hdrNo := lineNo
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "trace" {
			return nil, fmt.Errorf("%w: line %d: expected trace line, got %q", ErrBadRecord, hdrNo, line)
		}
		idx, err1 := strconv.Atoi(fields[1])
		n, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || idx < 0 || idx >= len(out) || n < 0 || seen[idx] {
			return nil, fmt.Errorf("%w: line %d: bad trace header %q", ErrBadRecord, hdrNo, line)
		}
		seen[idx] = true
		deps := make([]*domain.Pattern, 0, n)
		for k := 0; k < n; k++ {
			dl, more := next()
			if !more {
				return nil, fmt.Errorf("%w: truncated trace for entry %d", ErrBadRecord, idx)
			}
			dl = strings.TrimSpace(dl)
			if !strings.HasPrefix(dl, "dep ") {
				return nil, fmt.Errorf("%w: line %d: expected dep line, got %q", ErrBadRecord, lineNo, dl)
			}
			depText := strings.TrimPrefix(dl, "dep ")
			dep := memo[depText]
			if dep == nil {
				var err error
				dep, err = domain.ParseAbsQuick(tab, depText)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: %v", ErrBadRecord, lineNo, err)
				}
				if memo != nil {
					memo[depText] = dep
				}
			}
			deps = append(deps, dep)
		}
		out[idx].Deps = deps
	}
	if len(seen) != len(out) {
		// EncodeRecord writes a trace line for every entry: a record
		// without one is corrupt, and the entry would present with no
		// consultations.
		for i := range out {
			if !seen[i] {
				return nil, fmt.Errorf("%w: no trace for entry %d", ErrBadRecord, i)
			}
		}
	}
	return out, nil
}

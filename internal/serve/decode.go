package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"awam/api"
)

// Request bodies are read once and decoded in one pass. A warm
// /v1/backward query on a large program is mostly its source string,
// and encoding/json's reflection scanner walked that string twice (once
// to find the value's end, once to unquote it), which made decoding the
// largest share of the route. The scanner below decodes the canonical
// shape of api.AnalyzeRequest and api.BackwardRequest — one object with
// exact lowercase known keys, string, integer and string-array values —
// directly. Anything else falls back to encoding/json on the same
// bytes, so accepted inputs, decoded values and error messages are
// exactly those of json.NewDecoder(body).Decode: unknown or
// differently-cased keys, duplicate keys, null, floats, surrogate
// escapes, invalid UTF-8 and every malformed body take the fallback.
// As with the decoder, bytes after the first value are ignored.

// readRequest reads r's body under the body cap and decodes it with
// decode. On failure it answers 413 (body over the cap) or 400 itself
// and reports false.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	data, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err == nil {
		err = decode(data)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		} else {
			s.fail(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		}
		return false
	}
	return true
}

// readBody reads r's whole body through http.MaxBytesReader with the
// given limit. The buffer is presized from Content-Length, but never
// beyond the limit: a hostile header allocates nothing the cap would
// not allow anyway. The extra byte lets the final read see EOF without
// growing the buffer.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	size := int64(512)
	if cl := r.ContentLength; cl > 0 {
		size = min(cl, limit) + 1
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeAnalyze decodes an /v1/analyze body into req, which must be
// zero.
func decodeAnalyze(data []byte, req *api.AnalyzeRequest) error {
	var r api.AnalyzeRequest
	if scanRequest(data, reqFields{source: &r.Source, timeoutMS: &r.TimeoutMS, maxSteps: &r.MaxSteps, depth: &r.Depth}) {
		*req = r
		return nil
	}
	return decodeJSON(data, req)
}

// decodeBackward decodes an /v1/backward body into req, which must be
// zero.
func decodeBackward(data []byte, req *api.BackwardRequest) error {
	var r api.BackwardRequest
	if scanRequest(data, reqFields{source: &r.Source, goals: &r.Goals, timeoutMS: &r.TimeoutMS, maxSteps: &r.MaxSteps, depth: &r.Depth}) {
		*req = r
		return nil
	}
	return decodeJSON(data, req)
}

// decodeJSON is the reference decoding: what the handlers did before
// the one-pass scanner, on the same bytes.
func decodeJSON(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// reqFields names where a request type's keys decode to; a nil goals
// means the type has no "goals" key.
type reqFields struct {
	source              *string
	goals               *[]string
	timeoutMS, maxSteps *int64
	depth               *int
}

// scanRequest decodes data into f when it has the canonical shape and
// reports whether it did; on false the destinations may be partly
// written and the caller discards them.
func scanRequest(data []byte, f reqFields) bool {
	s := scanner{data: data}
	s.ws()
	if !s.eat('{') {
		return false
	}
	s.ws()
	if s.eat('}') {
		return true
	}
	var seen uint
	for {
		s.ws()
		key, ok := s.key()
		if !ok {
			return false
		}
		s.ws()
		if !s.eat(':') {
			return false
		}
		s.ws()
		var bit uint
		switch string(key) {
		case "source":
			bit = 1
			*f.source, ok = s.str()
		case "goals":
			if f.goals == nil {
				return false
			}
			bit = 2
			*f.goals, ok = s.strs()
		case "timeout_ms":
			bit = 4
			*f.timeoutMS, ok = s.int(64)
		case "max_steps":
			bit = 8
			*f.maxSteps, ok = s.int(64)
		case "depth":
			bit = 16
			var n int64
			n, ok = s.int(strconv.IntSize)
			*f.depth = int(n)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		s.ws()
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// scanner is the one-pass reader over a request body.
type scanner struct {
	data []byte
	i    int
}

func (s *scanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(c byte) bool {
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key scans an object key without escapes and returns its bytes.
func (s *scanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.data) {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1], true
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// str scans a string: every JSON escape, \uXXXX outside the surrogate
// range, and valid UTF-8. The runs between escapes are found with
// bytes.IndexByte, checked in bulk and copied whole. The closing-quote
// candidate is searched for again only once an escape has consumed it,
// so the searches read each byte once.
func (s *scanner) str() (string, bool) {
	if !s.eat('"') {
		return "", false
	}
	var b strings.Builder
	q := -1 // the first quote at or after s.i, once s.i has passed the last
	for {
		if q < s.i {
			n := bytes.IndexByte(s.data[s.i:], '"')
			if n < 0 {
				return "", false
			}
			q = s.i + n
		}
		run := s.data[s.i:q]
		esc := bytes.IndexByte(run, '\\')
		if esc >= 0 {
			run = run[:esc]
		}
		if !plain(run) {
			return "", false
		}
		if esc < 0 {
			s.i = q + 1
			if b.Cap() == 0 {
				return string(run), true
			}
			b.Write(run)
			return b.String(), true
		}
		if b.Cap() == 0 {
			b.Grow(len(s.data) - s.i) // the rest of the body bounds the string
		}
		b.Write(run)
		s.i += esc
		if !s.escape(&b) {
			return "", false
		}
	}
}

// plain reports whether run, a stretch of a string between escapes,
// holds no control byte and is valid UTF-8.
func plain(run []byte) bool {
	for _, c := range run {
		if c < 0x20 {
			return false
		}
	}
	return utf8.Valid(run)
}

// escape decodes the escape sequence at s.i (a backslash) into b.
func (s *scanner) escape(b *strings.Builder) bool {
	if s.i+1 >= len(s.data) {
		return false
	}
	c := s.data[s.i+1]
	s.i += 2
	switch c {
	case '"', '\\', '/':
		b.WriteByte(c)
	case 'b':
		b.WriteByte('\b')
	case 'f':
		b.WriteByte('\f')
	case 'n':
		b.WriteByte('\n')
	case 'r':
		b.WriteByte('\r')
	case 't':
		b.WriteByte('\t')
	case 'u':
		if s.i+4 > len(s.data) {
			return false
		}
		var r rune
		for _, h := range s.data[s.i : s.i+4] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return false
			}
			r = r<<4 | rune(h)
		}
		if utf16.IsSurrogate(r) {
			return false // pairs and lone halves: encoding/json decides
		}
		s.i += 4
		b.WriteRune(r)
	default:
		return false
	}
	return true
}

// strs scans an array of strings; [] decodes to an empty, non-nil
// slice, as encoding/json does.
func (s *scanner) strs() ([]string, bool) {
	if !s.eat('[') {
		return nil, false
	}
	out := []string{}
	s.ws()
	if s.eat(']') {
		return out, true
	}
	for {
		s.ws()
		v, ok := s.str()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		s.ws()
		if s.eat(']') {
			return out, true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}

// int scans a JSON integer (no fraction or exponent) that fits in a
// signed integer of the given bit size.
func (s *scanner) int(bits int) (int64, bool) {
	start := s.i
	s.eat('-')
	switch {
	case s.eat('0'):
	case s.i < len(s.data) && '1' <= s.data[s.i] && s.data[s.i] <= '9':
		for s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9' {
			s.i++
		}
	default:
		return 0, false
	}
	if s.i < len(s.data) {
		switch s.data[s.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	n, err := strconv.ParseInt(string(s.data[start:s.i]), 10, bits)
	return n, err == nil
}

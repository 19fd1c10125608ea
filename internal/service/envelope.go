package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"rsgen/internal/dag"
	"rsgen/internal/obs"
)

// bodyPool recycles request-body buffers across requests. What a handler
// decodes from a body keeps no reference to it, so the buffer goes back as
// soon as decoding is over.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the whole request body, up to limit bytes, into a pooled
// buffer sized from Content-Length. On failure it has written the response —
// 413 beyond the limit, 400 for a broken read — and returns nil. The caller
// hands the buffer to releaseBody once nothing points into it.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) *bytes.Buffer {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := min(r.ContentLength, limit); n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom then never regrows
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		s.releaseBody(buf)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "read request: %v", err)
		}
		return nil
	}
	return buf
}

// readRequest is the front half /v1/spec, /v1/select and /v1/advise share:
// read the body, decode its DAG in place and its other members into req. On
// failure it has written the response and ended decSpan, and ok is false.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, decSpan *obs.SpanHandle, req any) (d *dag.DAG, ok bool) {
	body := s.readBody(w, r, s.cfg.MaxBodyBytes)
	if body == nil {
		decSpan.EndErr(errUnreadableBody)
		return nil, false
	}
	d, err := decodeRequest(body.Bytes(), req)
	s.releaseBody(body)
	if err != nil {
		decSpan.EndErr(err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return d, true
}

// errUnreadableBody marks, on the decode span, a body readBody gave up on.
var errUnreadableBody = errors.New("unreadable or oversized body")

// releaseBody returns a body buffer to the pool — unless it grew past what a
// single-request body may need (a batch can be 32x that): such a buffer is
// left to the collector rather than pinned.
func (s *Server) releaseBody(buf *bytes.Buffer) {
	if int64(buf.Cap()) <= s.cfg.MaxBodyBytes+bytes.MinRead {
		bodyPool.Put(buf)
	}
}

// decodeEnvelope reads a request body in one pass over its bytes. The body
// is one JSON object — the request itself, or for a batch (list set to
// "requests") an object whose list member is an array of such requests. Every
// request's "dag" member is handed to onDag in place, with the request's index
// in the list (0 without one) and the cursor at the value, which onDag must
// consume; everything else — a few dozen bytes of options, backends, search
// knobs — is gathered and given to encoding/json to fill req, so every
// non-DAG field keeps encoding/json's validation and wording. Anything but
// whitespace after the object is an error, as is a repeated list member.
// Member names match as encoding/json matches them: exactly or case-folded.
//
// The error is ready for a 400 body. For text that is not JSON it is worded
// by encoding/json itself, which on that path reads the body a second time.
func decodeEnvelope(body []byte, req any, list string, onDag func(i int, sc *dag.Scanner) error) error {
	w := envelopeWalker{sc: dag.NewScanner(body), body: body, onDag: onDag}
	err := w.request(0, list)
	if err == nil {
		err = w.sc.End()
	}
	var syn *dag.SyntaxError
	if errors.As(err, &syn) {
		if jerr := json.Unmarshal(body, req); jerr != nil {
			err = jerr
		}
	}
	if err == nil && string(w.rest) != "{}" {
		err = json.Unmarshal(w.rest, req)
	}
	if err != nil {
		return fmt.Errorf("malformed request JSON: %w", err)
	}
	return nil
}

type envelopeWalker struct {
	sc    dag.Scanner
	body  []byte
	rest  []byte // the body less its dag members, compacted member by member
	onDag func(i int, sc *dag.Scanner) error
}

// request walks one request object. With list set it is a batch's outer
// object: its list member's elements are the requests, and a "dag" of its own
// means nothing.
func (w *envelopeWalker) request(i int, list string) error {
	sc := &w.sc
	if sc.Peek() != '{' {
		// Not an object: encoding/json gets it whole, to ignore a null or to
		// word its complaint.
		return w.keep(sc.Offset())
	}
	w.rest = append(w.rest, '{')
	kept, listSeen := 0, false
	for first := true; ; first = false {
		prev := sc.Offset()
		key, ok, err := sc.Member(first)
		if err != nil {
			return err
		}
		if !ok {
			w.rest = append(w.rest, '}')
			return nil
		}
		if list == "" && dag.FieldIs(key, "dag") {
			if err := w.onDag(i, sc); err != nil {
				return err
			}
			continue
		}
		if kept++; kept > 1 {
			w.rest = append(w.rest, ',')
		}
		// Between the previous value and this member's name lie only
		// whitespace and a comma or the brace: the first quote opens the name.
		name := prev + bytes.IndexByte(w.body[prev:], '"')
		if list == "" || !dag.FieldIs(key, list) {
			if err := w.keep(name); err != nil {
				return err
			}
			continue
		}
		if listSeen {
			return fmt.Errorf("duplicate member %q", key)
		}
		listSeen = true
		w.rest = append(w.rest, w.body[name:sc.Offset()]...)
		if err := w.requests(); err != nil {
			return err
		}
	}
}

// requests walks a batch's list of requests.
func (w *envelopeWalker) requests() error {
	sc := &w.sc
	if sc.Peek() != '[' {
		return w.keep(sc.Offset())
	}
	w.rest = append(w.rest, '[')
	for i := 0; ; i++ {
		ok, err := sc.Element(i == 0)
		if err != nil {
			return err
		}
		if !ok {
			w.rest = append(w.rest, ']')
			return nil
		}
		if i > 0 {
			w.rest = append(w.rest, ',')
		}
		if err := w.request(i, ""); err != nil {
			return err
		}
	}
}

// keep skips the value at the cursor and copies the bytes from start to its
// end for encoding/json to decode.
func (w *envelopeWalker) keep(start int) error {
	if err := w.sc.Skip(); err != nil {
		return err
	}
	w.rest = append(w.rest, w.body[start:w.sc.Offset()]...)
	return nil
}

// decodeRequest is decodeEnvelope for the routes whose body carries one DAG —
// /v1/spec, /v1/select, /v1/advise: the DAG is decoded where it lies and req
// receives the other members. It is a pure []byte → value function, which is
// what the fuzz targets drive.
func decodeRequest(body []byte, req any) (*dag.DAG, error) {
	var (
		d      *dag.DAG
		dagErr error
		seen   bool
	)
	err := decodeEnvelope(body, req, "", func(_ int, sc *dag.Scanner) error {
		if seen {
			return errors.New(`duplicate member "dag"`)
		}
		seen = true
		d, dagErr = sc.DAG()
		// An invalid DAG in valid JSON does not stop the walk: a malformed
		// option after it is still the first thing reported, as before.
		var syn *dag.SyntaxError
		if errors.As(dagErr, &syn) {
			return dagErr
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case !seen:
		return nil, errors.New("request has no dag")
	case dagErr != nil:
		return nil, fmt.Errorf("invalid dag: %w", dagErr)
	}
	return d, nil
}

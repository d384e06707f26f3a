package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"slms/internal/pipeline"
)

// Request is the JSON body shared by every /v1 endpoint: the one
// request type every front end validates and runs (see
// pipeline.Request).
type Request = pipeline.Request

// OptionsRequest mirrors core.Options over JSON.
type OptionsRequest = pipeline.OptionsRequest

// maxSourceBytes bounds the source payload independently of the HTTP
// body limit, so an attacker cannot park a megabyte of source in the
// parser per request.
const maxSourceBytes = 256 * 1024

// decodeRequestBytes decodes and validates one endpoint body, already
// read into memory by the fast path (tooLarge reports that the read was
// cut off past maxBody). It returns an *apiError (400/413-class) on any
// problem.
func decodeRequestBytes(body []byte, maxBody int64, tooLarge bool) (*Request, *apiError) {
	if tooLarge {
		return nil, &apiError{status: 413, code: CodeBodyTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", maxBody)}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, errBadRequest("invalid request JSON: %v", err)
	}
	// Exactly one JSON value: trailing garbage is a malformed request.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errBadRequest("request body holds more than one JSON value")
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, errBadRequest("missing required field %q", "source")
	}
	if len(req.Source) > maxSourceBytes {
		return nil, &apiError{status: 413, code: CodeBodyTooLarge,
			msg: fmt.Sprintf("source payload exceeds %d bytes", maxSourceBytes)}
	}
	if err := req.Validate(); err != nil {
		return nil, errBadRequest("%v", err)
	}
	return &req, nil
}

// requestDeadline computes the request's pipeline budget from
// timeout_ms and the server's default/max configuration.
func requestDeadline(r *Request, def, max time.Duration) (time.Duration, *apiError) {
	if r.TimeoutMS == 0 {
		return def, nil
	}
	d := time.Duration(r.TimeoutMS) * time.Millisecond
	if d > max {
		return 0, errBadRequest("timeout_ms %d exceeds the server maximum %dms",
			r.TimeoutMS, max.Milliseconds())
	}
	return d, nil
}

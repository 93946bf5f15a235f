package main

import (
	"fmt"
	"strconv"
	"sync"

	"analogflow/internal/jsonenc"
	"analogflow/internal/solve"
)

// The NDJSON records of POST /v1/solve and POST /v1/sessions/{id}/update are
// written by hand-made appenders, not encoding/json: a 128² grid report holds
// ~81k flows, and reflection takes about five times as long as the appenders
// on them.  Every appender produces exactly the bytes json.Encoder writes for
// the record — json.Marshal's encoding and a newline — which the
// differential tests, the fuzzer and the stream golden pin.

// recordBufs recycles the stream handlers' record buffers; a buffer keeps the
// capacity a large report grew it to.
var recordBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// streamItem is one NDJSON line of a solve response, and the error and
// terminal lines of both streams.
type streamItem struct {
	Index  int           `json:"index"`
	Report *solve.Report `json:"report,omitempty"`
	Error  string        `json:"error,omitempty"`
	// Code classifies error records with the same vocabulary the non-stream
	// JSON envelope uses (solver_error, overloaded, draining, aborted).
	Code  string `json:"code,omitempty"`
	Done  bool   `json:"done,omitempty"`
	Count int    `json:"count,omitempty"`
	// Aborted marks the terminal record of a stream truncated by request
	// cancellation — structurally distinct from a per-item error record, so
	// clients never have to sniff the error text to tell them apart.
	Aborted bool `json:"aborted,omitempty"`
	// Draining marks the terminal record of a stream cut short by server
	// shutdown: the items counted in Count completed normally, the rest
	// never started, and the client should retry them elsewhere.
	Draining bool `json:"draining,omitempty"`
	// RetryAfterSeconds accompanies shed-item error records with the
	// admission queue's back-off estimate.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// appendJSON appends the item's NDJSON line.  Only a report can fail to
// encode (a NaN or ±Inf number); b then comes back as it was.
func (it *streamItem) appendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(it.Index), 10)
	if it.Report != nil {
		b = append(b, `,"report":`...)
		var err error
		if b, err = it.Report.AppendJSON(b); err != nil {
			return b[:start], err
		}
	}
	if it.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonenc.AppendString(b, it.Error)
	}
	if it.Code != "" {
		b = append(b, `,"code":`...)
		b = jsonenc.AppendString(b, it.Code)
	}
	if it.Done {
		b = append(b, `,"done":true`...)
	}
	if it.Count != 0 {
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(it.Count), 10)
	}
	if it.Aborted {
		b = append(b, `,"aborted":true`...)
	}
	if it.Draining {
		b = append(b, `,"draining":true`...)
	}
	if it.RetryAfterSeconds != 0 {
		b = append(b, `,"retry_after_seconds":`...)
		b = strconv.AppendInt(b, int64(it.RetryAfterSeconds), 10)
	}
	return append(b, "}\n"...), nil
}

// stepFailure is the terminal error record of a session update whose step i
// failed after applied of n steps.
func stepFailure(i, applied, n int, err error) streamItem {
	return streamItem{Index: i, Code: codeSolverError, Count: applied,
		Error: fmt.Sprintf("step %d failed after %d of %d steps applied: %v", i, applied, n, err)}
}

// stepRecord is the NDJSON line of one applied session update step.  A
// structural step also reports the parked slots it leaves.  The keys are
// written in sorted order — index, report, slack_remaining, structural, warm —
// as encoding/json writes a map's keys: the wire format of this record.
type stepRecord struct {
	index          int
	report         *solve.Report
	warm           bool
	structural     bool
	slackRemaining int
}

// appendJSON appends the step's NDJSON line; like streamItem's, it fails
// only on a report holding a NaN or ±Inf number, and b then comes back as it
// was.
func (rec *stepRecord) appendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(rec.index), 10)
	b = append(b, `,"report":`...)
	if rec.report == nil {
		b = append(b, "null"...)
	} else {
		var err error
		if b, err = rec.report.AppendJSON(b); err != nil {
			return b[:start], err
		}
	}
	if rec.structural {
		b = append(b, `,"slack_remaining":`...)
		b = strconv.AppendInt(b, int64(rec.slackRemaining), 10)
		b = append(b, `,"structural":true`...)
	}
	b = append(b, `,"warm":`...)
	b = strconv.AppendBool(b, rec.warm)
	return append(b, "}\n"...), nil
}

// doneRecord is the terminal line of a fully applied session update, with
// the keys in sorted order: count, done, expires_at (when a TTL applies),
// last_used, session_updates.
type doneRecord struct {
	count          int
	sessionUpdates int
	lastUsed       string
	expiresAt      string
}

// appendJSON appends the done record's NDJSON line.
func (rec *doneRecord) appendJSON(b []byte) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(rec.count), 10)
	b = append(b, `,"done":true`...)
	if rec.expiresAt != "" {
		b = append(b, `,"expires_at":`...)
		b = jsonenc.AppendString(b, rec.expiresAt)
	}
	b = append(b, `,"last_used":`...)
	b = jsonenc.AppendString(b, rec.lastUsed)
	b = append(b, `,"session_updates":`...)
	b = strconv.AppendInt(b, int64(rec.sessionUpdates), 10)
	return append(b, "}\n"...)
}

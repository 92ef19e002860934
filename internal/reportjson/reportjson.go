// Package reportjson is the single machine-readable encoding of an
// optimization report. Both `cmd/icbe -json` and the serving layer
// (internal/server's /optimize responses and /stats aggregates) marshal
// through these types, so the CLI and the service can never drift, and a
// consumer can parse either with one schema.
//
// The driver counters are not copied here: Report.Stats is
// icbe.DriverStats itself, whose JSON tags are the wire names. Durations
// encode as integer nanoseconds (suffix `_ns`), so aggregation across
// requests is exact integer addition.
package reportjson

import (
	"encoding/json"
	"io"

	"icbe"
)

// Report is the wire form of icbe.Report.
type Report struct {
	Optimized        int              `json:"optimized"`
	PairsTotal       int              `json:"pairs_total"`
	OperationsBefore int              `json:"operations_before"`
	OperationsAfter  int              `json:"operations_after"`
	Truncated        bool             `json:"truncated"`
	Stats            icbe.DriverStats `json:"stats"`
	Conditionals     []CondReport     `json:"conditionals,omitempty"`
}

// CondReport is the wire form of icbe.CondReport: its error becomes a
// string.
type CondReport struct {
	Line           int    `json:"line"`
	Analyzable     bool   `json:"analyzable"`
	Correlated     bool   `json:"correlated"`
	Full           bool   `json:"full"`
	Answers        string `json:"answers,omitempty"`
	DupEstimate    int    `json:"dup_estimate"`
	PairsProcessed int    `json:"pairs_processed"`
	Applied        bool   `json:"applied"`
	Skipped        bool   `json:"skipped"`
	FailureKind    string `json:"failure_kind,omitempty"`
	Error          string `json:"error,omitempty"`
}

// FromReport converts an optimization report to its wire form.
func FromReport(r *icbe.Report) *Report {
	if r == nil {
		return nil
	}
	out := &Report{
		Optimized:        r.Optimized,
		PairsTotal:       r.PairsTotal,
		OperationsBefore: r.OperationsBefore,
		OperationsAfter:  r.OperationsAfter,
		Truncated:        r.Truncated,
		Stats:            r.Stats,
	}
	for _, c := range r.Conditionals {
		wc := CondReport{
			Line:           c.Line,
			Analyzable:     c.Analyzable,
			Correlated:     c.Correlated,
			Full:           c.Full,
			Answers:        c.Answers,
			DupEstimate:    c.DupEstimate,
			PairsProcessed: c.PairsProcessed,
			Applied:        c.Applied,
			Skipped:        c.Skipped,
			FailureKind:    c.FailureKind,
		}
		if c.Err != nil {
			wc.Error = c.Err.Error()
		}
		out.Conditionals = append(out.Conditionals, wc)
	}
	return out
}

// Encode writes v as indented JSON with a trailing newline — the one
// rendering used everywhere a report leaves the process.
func Encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

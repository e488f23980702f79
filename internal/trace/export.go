package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// sortedSpans returns spans in the canonical export order: by trace id,
// then start instant, then span id, then name. The order depends only on
// the span set, never on insertion order, which is what makes exports of
// identical sets byte-identical.
func sortedSpans(spans []SpanData) []SpanData {
	out := make([]SpanData, len(spans))
	copy(out, spans)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.SpanID != b.SpanID {
			return a.SpanID < b.SpanID
		}
		return a.Name < b.Name
	})
	return out
}

// chromeEvent is one Chrome trace-event ("X" = complete event with a
// duration, "M" = metadata). Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeDoc is the JSON-object form of the Chrome trace-event format.
type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// ExportChromeTrace renders spans in the Chrome trace-event JSON format —
// load the bytes in Perfetto (ui.perfetto.dev) or chrome://tracing to see
// the request timeline. Each recording process becomes a "process" row
// (named by a metadata event) and each trace id a "thread" row within it,
// so one distributed job reads as aligned tracks across crnserve, the
// coordinator, and its workers. Identical span sets yield identical bytes
// regardless of recording order.
func ExportChromeTrace(spans []SpanData) ([]byte, error) {
	ordered := sortedSpans(spans)
	// Assign pids to procs and tids to traces in order of first appearance
	// in the canonical span order (so the assignment is a function of the
	// span set, not of recording order).
	pidOf := make(map[string]int)
	var procs []string
	tidOf := make(map[string]int)
	for _, d := range ordered {
		if _, ok := pidOf[d.Proc]; !ok {
			pidOf[d.Proc] = len(procs) + 1
			procs = append(procs, d.Proc)
		}
		if _, ok := tidOf[d.TraceID]; !ok {
			tidOf[d.TraceID] = len(tidOf) + 1
		}
	}
	doc := chromeDoc{TraceEvents: []chromeEvent{}}
	for i, proc := range procs {
		name := proc
		if name == "" {
			name = "unknown"
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  i + 1,
			Args: map[string]string{"name": name},
		})
	}
	for _, d := range ordered {
		dur := float64(d.End-d.Start) / 1e3
		if dur < 0 {
			dur = 0
		}
		args := map[string]string{
			"trace_id": d.TraceID,
			"span_id":  d.SpanID,
		}
		if d.Parent != "" {
			args["parent_span_id"] = d.Parent
		}
		for _, k := range sortedKeys(d.Attrs) {
			args[k] = d.Attrs[k]
		}
		ev := chromeEvent{
			Name: d.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(d.Start) / 1e3,
			Dur:  &dur,
			Pid:  pidOf[d.Proc],
			Tid:  tidOf[d.TraceID],
			Args: args,
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("trace: encoding chrome trace: %w", err)
	}
	return append(b, '\n'), nil
}

// sortedKeys returns m's keys sorted — the sort-after-collect idiom, so no
// map-iteration order reaches the output.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteChromeTraceFile writes every finished span in t's ring to path as
// Chrome trace-event JSON (ExportChromeTrace) — what the CLIs' -trace flag
// leaves behind at exit.
func WriteChromeTraceFile(path string, t *Tracer) error {
	b, err := ExportChromeTrace(t.Snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

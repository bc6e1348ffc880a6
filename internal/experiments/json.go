package experiments

import (
	"encoding/json"
	"io"

	"gridroute/internal/stats"
)

// benchEntry is the machine-readable record of one executed experiment in
// BENCH_experiments.json. Durations are reported in milliseconds; table
// cells are the already-formatted strings of the markdown output (so ∞ and
// n/a survive JSON, which cannot encode IEEE infinities). Error carries the
// text of the error that ended the experiment (including ErrSkipped
// sub-case lists).
type benchEntry struct {
	ID         string         `json:"id"`
	Title      string         `json:"title"`
	Tags       []string       `json:"tags,omitempty"`
	DurationMS float64        `json:"duration_ms"`
	Error      string         `json:"error,omitempty"`
	Tables     []*stats.Table `json:"tables"`
	Notes      []string       `json:"notes,omitempty"`
}

// benchFile is the top-level BENCH_experiments.json document. Partial marks
// a sweep that was cancelled (SIGINT) before every experiment completed:
// the file is still valid JSON and carries every Result that streamed out
// before the cut.
type benchFile struct {
	Mode        string       `json:"mode"`
	Workers     int          `json:"workers"`
	Partial     bool         `json:"partial,omitempty"`
	Experiments []benchEntry `json:"experiments"`
}

// WriteJSON emits the machine-readable results file for a finished (or,
// with partial set, interrupted) run.
func WriteJSON(w io.Writer, quick bool, workers int, partial bool, results []Result) error {
	mode := "full"
	if quick {
		mode = "quick"
	}
	doc := benchFile{Mode: mode, Workers: workers, Partial: partial}
	for _, res := range results {
		entry := benchEntry{
			ID:         res.Experiment.ID,
			Title:      res.Report.Title,
			Tags:       res.Experiment.Tags,
			DurationMS: float64(res.Duration.Microseconds()) / 1000,
			Tables:     res.Report.Tables,
			Notes:      res.Report.Notes,
		}
		if res.Err != nil {
			entry.Error = res.Err.Error()
		}
		doc.Experiments = append(doc.Experiments, entry)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

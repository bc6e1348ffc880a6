// Package stats provides the small statistics and table-formatting toolkit
// used by the benchmark harness: summary statistics, log-log growth-rate
// fits (to compare measured competitive-ratio curves against √n, n^{2/3},
// log n shapes), and markdown table rendering for EXPERIMENTS.md.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic summary statistics of a sample.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// Summarize computes summary statistics.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		return Summary{}
	}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(s.N)
	for _, x := range xs {
		s.Std += float64((x - s.Mean) * (x - s.Mean))
	}
	if s.N > 1 {
		s.Std = math.Sqrt(s.Std / float64(s.N-1))
	} else {
		s.Std = 0
	}
	return s
}

// Median returns the sample median.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	m := len(ys) / 2
	if len(ys)%2 == 1 {
		return ys[m]
	}
	return (ys[m-1] + ys[m]) / 2
}

// GrowthExponent fits ratio ≈ a·n^b by least squares on (log n, log ratio)
// and returns b. Comparing b against 0.5 (√n) or ~0 (polylog) is how the
// harness tests the *shape* of Table 1's lower bounds and the theorems'
// upper bounds.
func GrowthExponent(ns []int, ys []float64) float64 {
	if len(ns) != len(ys) || len(ns) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	m := 0
	for i := range ns {
		if ys[i] <= 0 || math.IsInf(ys[i], 0) || math.IsNaN(ys[i]) {
			continue
		}
		x := math.Log(float64(ns[i]))
		y := math.Log(ys[i])
		sx += x
		sy += y
		sxx += float64(x * x)
		sxy += float64(x * y)
		m++
	}
	if m < 2 {
		return math.NaN()
	}
	fm := float64(m)
	den := float64(fm*sxx) - float64(sx*sx)
	if den == 0 {
		return math.NaN()
	}
	return (float64(fm*sxy) - float64(sx*sy)) / den
}

// LogFitQuality fits ratio ≈ a + b·log n and returns the residual RMS —
// small values mean the curve is consistent with logarithmic growth.
func LogFitQuality(ns []int, ys []float64) (b, rms float64) {
	if len(ns) < 2 {
		return math.NaN(), math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range ns {
		x := math.Log(float64(ns[i]))
		sx += x
		sy += ys[i]
		sxx += float64(x * x)
		sxy += float64(x * ys[i])
	}
	fm := float64(len(ns))
	den := float64(fm*sxx) - float64(sx*sx)
	if den == 0 {
		return math.NaN(), math.NaN()
	}
	b = (float64(fm*sxy) - float64(sx*sy)) / den
	a := (sy - float64(b*sx)) / fm
	for i := range ns {
		d := ys[i] - (a + float64(b*math.Log(float64(ns[i]))))
		rms += float64(d * d)
	}
	return b, math.Sqrt(rms / fm)
}

// Table accumulates rows and renders GitHub-flavoured markdown.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are formatted with %v (floats with %.3g).
// Non-finite floats render as "∞"/"-∞"/"n/a" — an unbounded competitive
// ratio must never print as a perfect-looking number.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "∞"
	case math.IsInf(v, -1):
		return "-∞"
	case math.IsNaN(v):
		return "n/a"
	}
	return fmt.Sprintf("%.3g", v)
}

// MarshalJSON serializes the table for machine-readable results files
// (BENCH_experiments.json). Cells are the formatted strings of the markdown
// output, so values JSON cannot encode as numbers (∞, n/a) survive intact.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{t.Title, t.Header, rows})
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	return b.String()
}

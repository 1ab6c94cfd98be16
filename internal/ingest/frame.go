package ingest

import (
	"fmt"
	"math"
	"strings"

	"rainshine/internal/frame"
)

// FrameQuality is the DataQuality accounting for one ingested frame:
// how many factor cells are usable, per column, after sanitization.
type FrameQuality struct {
	Rows int
	// ContinuousCols is the number of continuous columns examined (the
	// denominator of Coverage alongside Rows).
	ContinuousCols int
	// MissingCells[col] counts unusable cells (NaN on arrival, or Inf
	// demoted to missing) in each damaged continuous column.
	MissingCells map[string]int
	// InfCells counts the subset of missing cells that arrived as ±Inf.
	InfCells int
	// MissingColumns lists requested columns the frame does not carry.
	MissingColumns []string
}

// Coverage is the fraction of examined continuous cells that are usable.
func (q *FrameQuality) Coverage() float64 {
	total := q.Rows * q.ContinuousCols
	if total == 0 {
		return 1
	}
	missing := 0
	for _, n := range q.MissingCells {
		missing += n
	}
	return float64(total-missing) / float64(total)
}

// SanitizeFrame hardens an externally supplied frame for analysis:
// required columns must be present (a typed ErrMissingColumn otherwise),
// and every non-finite cell in a continuous column is normalized to the
// NaN missing sentinel (frame.Column.SetMissing), the one encoding of a
// missing cell every downstream consumer reads. The damage is itemized
// per column. The input frame is modified in place only by this
// quarantine marking; values are never invented here (imputation is a
// sensor-stage concern, and the learner's available-case handling
// covers sparse cells better than fake data).
func SanitizeFrame(f *frame.Frame, required []string, rep *Report) (*FrameQuality, error) {
	q := &FrameQuality{Rows: f.NumRows(), MissingCells: map[string]int{}}
	for _, name := range required {
		if _, err := f.Col(name); err != nil {
			q.MissingColumns = append(q.MissingColumns, name)
		}
	}
	if len(q.MissingColumns) > 0 {
		if rep != nil {
			rep.Quarantined[MissingColumn] += len(q.MissingColumns)
		}
		return q, fmt.Errorf("%w: %s", ErrMissingColumn, strings.Join(q.MissingColumns, ", "))
	}
	for _, name := range f.Names() {
		c, err := f.Col(name)
		if err != nil {
			return q, err
		}
		if c.Kind != frame.Continuous {
			continue
		}
		q.ContinuousCols++
		missing := 0
		for i, v := range c.Data {
			switch {
			case math.IsInf(v, 0):
				q.InfCells++
				fallthrough
			case math.IsNaN(v):
				// The in-place quarantine IS this function's documented
				// contract: callers hand over ownership for repair.
				c.SetMissing(i) //lint:allow frameclone sanitize owns the frame during quarantine; marking is the advertised in-place repair
				missing++
			}
		}
		if missing > 0 {
			q.MissingCells[name] = missing
			if rep != nil {
				rep.Quarantined[NonFiniteCell] += missing
			}
		}
	}
	return q, nil
}

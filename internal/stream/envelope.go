package stream

import (
	"context"
	"encoding/json"
	"math"

	"rainshine/internal/figures"
	"rainshine/internal/ingest"
)

// Envelope is the canonical study summary: the deterministic JSON a
// batch study and a streamed replay of its log must agree on byte for
// byte. Every field is a pure function of the reconstructed telemetry —
// fleet shape, event and ticket counts, the DataQuality report, and the
// Q3 environmental analysis (thresholds NaN-safe as nullable numbers).
type Envelope struct {
	Seed    uint64 `json:"seed"`
	Days    int    `json:"days"`
	Racks   int    `json:"racks"`
	Servers int    `json:"servers"`
	Events  int    `json:"events"`
	Tickets int    `json:"tickets"`

	Quality *ingest.Report `json:"quality"`

	TempThresholdF  *float64 `json:"temp_threshold_f"`
	RHThreshold     *float64 `json:"rh_threshold"`
	RowsUsed        int      `json:"rows_used"`
	RowsDropped     int      `json:"rows_dropped"`
	DroppedFeatures []string `json:"dropped_features,omitempty"`
	TreeLeaves      int      `json:"tree_leaves"`
}

// nullableFloat maps non-finite values to null (the repo-wide NaN-safe
// JSON idiom, matching finitePtr in rainshine_json.go).
func nullableFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// BuildEnvelope computes the study envelope for d. Its Q3 analysis is
// d's Climate entry, the same fit the batch study's Q3 reads.
func BuildEnvelope(ctx context.Context, d *figures.Data) (*Envelope, error) {
	res, err := d.Climate(ctx)
	if err != nil {
		return nil, err
	}
	rep, err := d.Quality()
	if err != nil {
		return nil, err
	}
	return &Envelope{
		Seed:            d.Res.Cfg.Seed,
		Days:            d.Res.Days,
		Racks:           len(d.Res.Fleet.Racks),
		Servers:         d.Res.Fleet.TotalServers(),
		Events:          len(d.Res.Events),
		Tickets:         len(d.Res.Tickets),
		Quality:         rep,
		TempThresholdF:  nullableFloat(res.Thresholds.TempF),
		RHThreshold:     nullableFloat(res.Thresholds.RH),
		RowsUsed:        res.RowsUsed,
		RowsDropped:     res.RowsDropped,
		DroppedFeatures: res.DroppedFeatures,
		TreeLeaves:      res.Tree.NumLeaves(),
	}, nil
}

// EnvelopeJSON renders the study envelope as its canonical JSON bytes.
func EnvelopeJSON(ctx context.Context, d *figures.Data) ([]byte, error) {
	env, err := BuildEnvelope(ctx, d)
	if err != nil {
		return nil, err
	}
	// The only float fields are the threshold pointers, boxed through
	// nullableFloat: non-finite values are already null by construction.
	//lint:allow nansafe threshold pointers are boxed finite via nullableFloat
	return json.Marshal(env)
}

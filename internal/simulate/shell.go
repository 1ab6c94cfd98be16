package simulate

import (
	"errors"
	"fmt"

	"rainshine/internal/climate"
	"rainshine/internal/failure"
	"rainshine/internal/rng"
	"rainshine/internal/topology"
	"rainshine/internal/workload"
)

// Shell rebuilds the deterministic substrate of a Result — fleet,
// hazard model, observation window — without drawing any events or
// tickets. The climate model starts empty (every reading NaN): a
// stream reconstruction fills telemetry in record by record, and at
// day-close the shell plus the committed records is byte-equivalent to
// the Result a batch run would have produced over the same data.
//
// Shell and RunContext both build that substrate through substrate, so
// a shell built from a config carries the same fleet and hazard surface
// as the batch run with that config.
func Shell(cfg Config) (*Result, error) {
	res, _, err := substrate(cfg)
	if err != nil {
		return nil, err
	}
	if res.Climate, err = climate.Empty(len(res.Fleet.Racks), res.Days); err != nil {
		return nil, fmt.Errorf("simulate: building empty climate: %w", err)
	}
	return res, nil
}

// substrate applies cfg's defaults and builds the fleet and its hazard
// model from the "topology" and "workload" splits of the seed's root
// source. It returns them in a Result without climate, events or
// tickets, along with the root source for the rest of a run.
func substrate(cfg Config) (*Result, *rng.Source, error) {
	cfg = cfg.withDefaults()
	if cfg.Days < 1 {
		return nil, nil, errors.New("simulate: non-positive day count")
	}
	root := rng.New(cfg.Seed)
	fleet, err := topology.Build(root.Split("topology"), cfg.Topology)
	if err != nil {
		return nil, nil, fmt.Errorf("simulate: building fleet: %w", err)
	}
	demand, err := workload.New(root.Split("workload"), cfg.Days)
	if err != nil {
		return nil, nil, fmt.Errorf("simulate: building demand model: %w", err)
	}
	hz := failure.New(fleet, failure.DefaultParams(), demand)
	return &Result{Cfg: cfg, Fleet: fleet, Hazard: hz, Days: cfg.Days}, root, nil
}

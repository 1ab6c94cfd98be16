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
// Shell consumes exactly the RNG splits RunContext consumes for the
// same structures ("topology", "workload"), so a shell built from a
// config is guaranteed to carry the same fleet and hazard surface as
// the batch run with that config.
func Shell(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Days < 1 {
		return nil, errors.New("simulate: non-positive day count")
	}
	root := rng.New(cfg.Seed)
	fleet, err := topology.Build(root.Split("topology"), cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("simulate: building fleet: %w", err)
	}
	clim, err := climate.Empty(len(fleet.Racks), cfg.Days)
	if err != nil {
		return nil, fmt.Errorf("simulate: building empty climate: %w", err)
	}
	demand, err := workload.New(root.Split("workload"), cfg.Days)
	if err != nil {
		return nil, fmt.Errorf("simulate: building demand model: %w", err)
	}
	hz := failure.NewWithDemand(fleet, failure.DefaultParams(), demand)
	return &Result{Cfg: cfg, Fleet: fleet, Climate: clim, Hazard: hz, Days: cfg.Days}, nil
}

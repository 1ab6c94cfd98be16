package server

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"rainshine"
)

// maxDays bounds the observation window a request may ask for; it keeps
// one query from pinning a core for hours.
const maxDays = 3660

// parseStudyConfig extracts the simulation-defining parameters shared
// by every /v1 endpoint:
//
//	seed   uint64  root RNG seed            (default 42)
//	days   int     observation window, days (default 930, max 3660)
//	racks  a,b     per-DC rack counts       (default 331,290)
//	               with racks x days at most rainshine.MaxRackDays
//	faults bool    dirty-data mode          (default false)
func parseStudyConfig(q url.Values) (StudyConfig, error) {
	var cfg StudyConfig
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed %q: must be an unsigned integer", v)
		}
		cfg.Seed = seed
	}
	if v := q.Get("days"); v != "" {
		days, err := strconv.Atoi(v)
		if err != nil || days < 1 {
			return cfg, fmt.Errorf("bad days %q: must be a positive integer", v)
		}
		if days > maxDays {
			return cfg, fmt.Errorf("bad days %d: max %d", days, maxDays)
		}
		cfg.Days = days
	}
	if v := q.Get("racks"); v != "" {
		// Same validation as the CLI -racks flag: non-positive counts
		// are rejected, not silently replaced with the paper defaults.
		a, b, err := rainshine.ParseRacks(v)
		if err != nil {
			return cfg, fmt.Errorf("bad racks %q: %v", v, trimPrefix(err))
		}
		cfg.Racks = [2]int{a, b}
	}
	if v := q.Get("faults"); v != "" {
		faults, err := strconv.ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("bad faults %q: must be a boolean", v)
		}
		cfg.Faults = faults
	}
	cfg = cfg.Normalize()
	// The rack-day budget NewStudy enforces, checked before any build.
	if err := rainshine.CheckStudySize(cfg.Options()...); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// parseQ1Params extracts the Q1 evaluation parameters:
//
//	workload W1..W7  (default W6)
//	hourly   bool    (default false: daily granularity)
func parseQ1Params(q url.Values) (rainshine.Workload, bool, error) {
	wl := rainshine.W6
	if v := q.Get("workload"); v != "" {
		var err error
		if wl, err = rainshine.ParseWorkload(v); err != nil {
			return 0, false, fmt.Errorf("bad workload %q: %v", v, trimPrefix(err))
		}
	}
	hourly := false
	if v := q.Get("hourly"); v != "" {
		var err error
		if hourly, err = strconv.ParseBool(v); err != nil {
			return 0, false, fmt.Errorf("bad hourly %q: must be a boolean", v)
		}
	}
	return wl, hourly, nil
}

// maxRatios caps the price ratios one Q2 request may evaluate.
const maxRatios = 16

// parseRatios extracts Q2's price-ratio list ("1.0,1.5" by default): at
// most maxRatios positive, finite numbers.
func parseRatios(q url.Values) ([]float64, error) {
	v := q.Get("ratios")
	if v == "" {
		return nil, nil // VendorComparison applies its own default
	}
	if strings.Count(v, ",") >= maxRatios {
		return nil, fmt.Errorf("bad ratios: at most %d values", maxRatios)
	}
	var out []float64
	for _, part := range strings.Split(v, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) {
			return nil, fmt.Errorf("bad ratios %q: want positive finite numbers", v)
		}
		out = append(out, f)
	}
	return out, nil
}

// trimPrefix drops the "rainshine: " prefix from library errors so API
// messages read cleanly.
func trimPrefix(err error) string {
	return strings.TrimPrefix(err.Error(), "rainshine: ")
}

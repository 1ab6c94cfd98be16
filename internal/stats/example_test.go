package stats_test

import (
	"fmt"
	"log"

	"rainshine/internal/stats"
)

// ExampleQuantile computes the provisioning percentile of a small
// failure-count sample.
func ExampleQuantile() {
	failuresPerDay := []float64{0, 0, 1, 0, 2, 0, 0, 1, 0, 5}
	p95, err := stats.Quantile(failuresPerDay, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("95th percentile: %.2f failures/day\n", p95)
	// Output: 95th percentile: 3.65 failures/day
}

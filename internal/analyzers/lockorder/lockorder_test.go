package lockorder_test

import (
	"testing"

	"rainshine/internal/analysis/analysistest"
	"rainshine/internal/analyzers/lockorder"
)

func TestLockorder(t *testing.T) {
	// lockdep first: package a imports its Blocks/Locks facts.
	analysistest.Run(t, "testdata", lockorder.Analyzer, "lockdep", "a")
}

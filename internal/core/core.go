// Package core is the Cat. 1 workflow of the paper's multi-factor (MF)
// analysis framework (Section V): Cluster splits a population (racks)
// into groups with homogeneous failure behaviour by fitting a regression
// tree Metric ~ X1..Xn and reading its leaves. Downstream decisions
// (spare provisioning) are then made per group instead of from one
// pooled distribution.
//
// Cat. 2 (one variable's influence with every other factor normalized
// out) lives elsewhere: pdp.Standardize and pdp.PairedContrast (Q2), and
// the splits of the environment tree in envan (Q3).
package core

import (
	"fmt"

	"rainshine/internal/cart"
	"rainshine/internal/frame"
)

// Clustering is the result of a Cat.-1 analysis: a fitted tree and the
// groups its leaves induce.
type Clustering struct {
	Tree *cart.Tree
	// Assignment maps each input row to its cluster (leaf) index.
	Assignment []int
	// Members lists the row indices of each cluster.
	Members [][]int
	// Importance ranks the factors that formed the clusters.
	Importance map[string]float64
}

// NumClusters returns the number of groups found.
func (c *Clustering) NumClusters() int { return len(c.Members) }

// Describe returns the factor-condition path defining a cluster.
func (c *Clustering) Describe(cluster int) (string, error) {
	return c.Tree.DescribeLeaf(cluster)
}

// Cluster fits Metric ~ features over f and groups rows by tree leaf.
// cfg zero-values fall back to CART defaults; a typical call bounds the
// leaf count via MaxLeaves to keep groups reviewable.
func Cluster(f *frame.Frame, metric string, features []string, cfg cart.Config, maxLeaves int) (*Clustering, error) {
	cfg.Task = cart.Regression
	tree, err := cart.Fit(f, metric, features, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: clustering: %w", err)
	}
	if maxLeaves > 0 && tree.NumLeaves() > maxLeaves {
		tree.PruneToLeaves(maxLeaves)
	}
	assign, err := tree.AssignLeaves(f)
	if err != nil {
		return nil, err
	}
	members := make([][]int, tree.NumLeaves())
	for row, leaf := range assign {
		members[leaf] = append(members[leaf], row)
	}
	return &Clustering{
		Tree:       tree,
		Assignment: assign,
		Members:    members,
		Importance: tree.Importance(),
	}, nil
}

// CVCandidates is the default complexity ladder for cross-validated
// clustering.
var CVCandidates = []float64{0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064}

// ClusterCV is Cluster with the complexity parameter chosen by k-fold
// cross-validation and the one-standard-error rule, instead of a fixed
// cp — rpart's recommended workflow. Use when there is no prior for how
// much structure the metric has.
func ClusterCV(f *frame.Frame, metric string, features []string, cfg cart.Config, maxLeaves, folds int, seed uint64) (*Clustering, error) {
	cfg.Task = cart.Regression
	table, err := cart.CrossValidate(f, metric, features, cfg, CVCandidates, folds, seed)
	if err != nil {
		return nil, fmt.Errorf("core: cross-validating: %w", err)
	}
	cp, err := cart.BestCP(table)
	if err != nil {
		return nil, err
	}
	cfg.CP = cp
	return Cluster(f, metric, features, cfg, maxLeaves)
}

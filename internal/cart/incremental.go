package cart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"rainshine/internal/frame"
)

// RefitConfig tunes the incremental refit-on-drift policy around the
// base growth rules.
type RefitConfig struct {
	// Config holds the growth rules. Its Split and Bins are not read:
	// the Refitter always grows with the exact presorted engine.
	Config Config
	// LeafDrift is the relative population change (vs the last
	// structural fit) that marks a leaf's subtree stale. Zero means
	// 0.15; negative disables drift refits entirely (stats refresh
	// only).
	LeafDrift float64
	// GlobalDrift is the fraction of all rows that may sit in stale
	// leaves before the incremental path gives up and refits the whole
	// tree. Zero means 0.35.
	GlobalDrift float64
}

func (c RefitConfig) withDefaults() RefitConfig {
	c.Config = c.Config.withDefaults()
	if c.LeafDrift == 0 {
		c.LeafDrift = 0.15
	}
	if c.GlobalDrift == 0 {
		c.GlobalDrift = 0.35
	}
	return c
}

// RefitOutcome says what a Refit call did.
type RefitOutcome int

const (
	// RefitInitial is the first fit over the accumulated rows.
	RefitInitial RefitOutcome = iota
	// RefitStats means no leaf drifted past the threshold: leaf
	// statistics were refreshed in place, structure untouched.
	RefitStats
	// RefitSubtrees means only the drifted leaves' subtrees were
	// regrown; the rest of the tree (and its presorted row views) was
	// reused.
	RefitSubtrees
	// RefitFull means drift was global and the whole tree was regrown
	// (still reusing the incrementally merged presorted orders, so no
	// re-sort happens even here).
	RefitFull
)

// String names the outcome.
func (o RefitOutcome) String() string {
	switch o {
	case RefitInitial:
		return "initial"
	case RefitStats:
		return "stats"
	case RefitSubtrees:
		return "subtrees"
	case RefitFull:
		return "full"
	default:
		return fmt.Sprintf("RefitOutcome(%d)", int(o))
	}
}

// RefitStatsReport summarizes one Refit call.
type RefitStatsReport struct {
	Outcome      RefitOutcome
	Rows         int // training rows after this refit
	RowsAppended int // rows added since the previous refit
	Leaves       int // leaves before the refit (0 on initial)
	Drifted      int // leaves past the drift threshold
}

// Refitter maintains a CART model over an append-only training set: new
// rows arrive in batches (a streamed day of rack-day rows), and Refit
// brings the tree current without re-sorting history. Each feature's
// presorted order is maintained by merging the sorted batch into the
// existing order (O(n + k log k) per feature instead of O(n log n)),
// and structure is regrown only under the drifted leaves — rows are
// routed through the current tree, leaves whose populations shifted
// beyond RefitConfig.LeafDrift get their subtrees refit on their row
// subsets, and only global drift falls back to a whole-tree regrowth.
//
// Refit results are deterministic: row order is append order, the
// regrowth uses the same worker-count-independent split search as Fit,
// and two Refitters fed the same batches produce byte-identical trees.
// The Refitter always uses the exact (presorted) engine: its unit of
// reuse is the sorted order itself.
type Refitter struct {
	cfg         RefitConfig
	target      string
	feats       []Feature
	classLevels []string

	cols   [][]float64
	y      []float64
	sorted [][]int32 // per feature, finite rows by (value, row); nil for nominal

	tree      *Tree
	baseLeafN []int // leaf populations at the last structural fit
	appended  int

	// Reused per-Refit scratch.
	x       []float64
	rowLeaf []int32
}

// NewRefitter prepares an empty incremental learner. feats fixes the
// feature schema (order matters: it is the row layout Append expects);
// classLevels must be non-empty for classification tasks and nil for
// regression.
func NewRefitter(target string, feats []Feature, classLevels []string, cfg RefitConfig) (*Refitter, error) {
	if target == "" {
		return nil, errors.New("cart: empty refit target")
	}
	if len(feats) == 0 {
		return nil, errors.New("cart: no refit features")
	}
	cfg = cfg.withDefaults()
	if cfg.Config.Task == Classification && len(classLevels) == 0 {
		return nil, errors.New("cart: classification refitter needs class levels")
	}
	if cfg.Config.Task == Regression && len(classLevels) > 0 {
		return nil, errors.New("cart: regression refitter got class levels")
	}
	r := &Refitter{
		cfg:         cfg,
		target:      target,
		feats:       slices.Clone(feats),
		classLevels: slices.Clone(classLevels),
		cols:        make([][]float64, len(feats)),
		sorted:      make([][]int32, len(feats)),
		x:           make([]float64, len(feats)),
	}
	return r, nil
}

// Rows returns the number of accumulated training rows.
func (r *Refitter) Rows() int { return len(r.y) }

// Tree returns the current model (nil before the first Refit).
func (r *Refitter) Tree() *Tree { return r.tree }

// Append adds a batch of rows (each of len(feats) feature values, NaN
// for missing) with their targets, merging each numeric feature's
// sorted batch into the maintained presorted order.
func (r *Refitter) Append(rows [][]float64, y []float64) error {
	if len(rows) != len(y) {
		return fmt.Errorf("cart: %d rows vs %d targets", len(rows), len(y))
	}
	if len(rows) == 0 {
		return nil
	}
	base := len(r.y)
	for i, row := range rows {
		if len(row) != len(r.feats) {
			return fmt.Errorf("cart: row %d has %d values, want %d", i, len(row), len(r.feats))
		}
		if r.cfg.Config.Task == Classification {
			cl := int(y[i])
			if float64(cl) != y[i] || cl < 0 || cl >= len(r.classLevels) {
				return fmt.Errorf("cart: row %d class %v out of range [0,%d)", i, y[i], len(r.classLevels))
			}
		} else if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return fmt.Errorf("cart: row %d has non-finite target", i)
		}
	}
	r.y = append(r.y, y...)
	for fi := range r.feats {
		col := r.cols[fi]
		for _, row := range rows {
			col = append(col, row[fi])
		}
		r.cols[fi] = col
		if r.feats[fi].Kind == frame.Nominal {
			continue
		}
		r.sorted[fi] = mergeSorted(r.sorted[fi], col, base, len(rows))
	}
	r.appended += len(rows)
	return nil
}

// mergeSorted merges the finite new rows [base, base+k) — sorted by
// (value, row index) — into the existing presorted order over col.
func mergeSorted(old []int32, col []float64, base, k int) []int32 {
	batch := sortedFinite(col, base, base+k)
	if len(batch) == 0 {
		return old
	}
	merged := make([]int32, 0, len(old)+len(batch))
	i, j := 0, 0
	for i < len(old) && j < len(batch) {
		// Old rows always have smaller indices, so value ties break
		// toward the old side.
		if col[old[i]] <= col[batch[j]] {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, batch[j])
			j++
		}
	}
	merged = append(merged, old[i:]...)
	merged = append(merged, batch[j:]...)
	return merged
}

// Refit brings the tree current over the accumulated rows. See the
// Refitter doc for the policy; the returned report says which path ran.
func (r *Refitter) Refit(ctx context.Context) (RefitStatsReport, error) {
	rep := RefitStatsReport{Rows: len(r.y), RowsAppended: r.appended}
	if len(r.y) == 0 {
		return rep, errors.New("cart: refit with no rows")
	}
	defer func() { r.appended = 0 }()

	if r.tree == nil {
		rep.Outcome = RefitInitial
		t, err := r.fullFit(ctx)
		if err != nil {
			return rep, err
		}
		r.adopt(t)
		return rep, nil
	}
	rep.Leaves = r.tree.NumLeaves()

	// Route every row through the current structure.
	leafN := make([]int, r.tree.NumLeaves())
	if cap(r.rowLeaf) < len(r.y) {
		r.rowLeaf = make([]int32, len(r.y))
	}
	rowLeaf := r.rowLeaf[:len(r.y)]
	for row := range r.y {
		for fi := range r.cols {
			r.x[fi] = r.cols[fi][row]
		}
		id := r.tree.leafFor(r.x).LeafID
		rowLeaf[row] = int32(id)
		leafN[id]++
	}

	stale := make([]bool, len(leafN))
	staleRows, drifted := 0, 0
	if r.cfg.LeafDrift >= 0 {
		for l, n := range leafN {
			base := r.baseLeafN[l]
			if base < 1 {
				base = 1
			}
			if math.Abs(float64(n-r.baseLeafN[l]))/float64(base) > r.cfg.LeafDrift {
				stale[l] = true
				staleRows += n
				drifted++
			}
		}
	}
	rep.Drifted = drifted

	if drifted == 0 {
		rep.Outcome = RefitStats
		r.refreshLeafStats(ctx, rowLeaf, leafN, nil)
		return rep, nil
	}
	if float64(staleRows) > r.cfg.GlobalDrift*float64(len(r.y)) {
		rep.Outcome = RefitFull
		t, err := r.fullFit(ctx)
		if err != nil {
			return rep, err
		}
		r.adopt(t)
		return rep, nil
	}
	rep.Outcome = RefitSubtrees
	if err := r.refitSubtrees(ctx, rowLeaf, leafN, stale); err != nil {
		return rep, err
	}
	return rep, nil
}

// adopt installs a freshly grown tree and rebases drift accounting.
func (r *Refitter) adopt(t *Tree) {
	r.tree = t
	r.baseLeafN = make([]int, t.NumLeaves())
	for l, leaf := range t.Leaves() {
		r.baseLeafN[l] = leaf.N
	}
}

// engine assembles a presorted engine over the accumulated storage for
// a tree shell sharing the refitter's schema.
func (r *Refitter) engine(ctx context.Context) *presorted {
	t := &Tree{
		Target:        r.target,
		Task:          r.cfg.Config.Task,
		Features:      slices.Clone(r.feats),
		ClassLevels:   r.classLevels,
		importanceRaw: make([]float64, len(r.feats)),
	}
	return newPresorted(newFit(ctx, r.cfg.Config, t, r.y), r.cols)
}

// fullFit regrows the whole tree, reusing the maintained presorted
// orders (cloned, since partitioning rearranges them in place).
func (r *Refitter) fullFit(ctx context.Context) (*Tree, error) {
	e := r.engine(ctx)
	idx := make([]int, len(r.y))
	for i := range idx {
		idx[i] = i
	}
	sorted := make([][]int32, len(r.sorted))
	for fi, s := range r.sorted {
		if s != nil {
			sorted[fi] = slices.Clone(s)
		}
	}
	return growTree(e.fit, e, nodeRows{idx: idx, sorted: sorted})
}

// refreshLeafStats recomputes N/Value/Impurity (and class counts) for
// every kept leaf from the routed rows. skip marks leaves about to be
// replaced by regrown subtrees.
func (r *Refitter) refreshLeafStats(ctx context.Context, rowLeaf []int32, leafN []int, skip []bool) {
	leaves := r.tree.Leaves()
	idxOf := rowsOf(rowLeaf, leafN, func(l int) bool { return skip == nil || !skip[l] })
	stat := newFit(ctx, r.cfg.Config, &Tree{ClassLevels: r.classLevels}, r.y)
	for l, leaf := range leaves {
		if skip != nil && skip[l] {
			continue
		}
		if leafN[l] == 0 {
			// A leaf no new data reaches keeps its fitted stats; its
			// population is simply zero now.
			leaf.N = 0
			continue
		}
		fresh := stat.makeNode(stat.aggregate(idxOf[l]))
		leaf.N = fresh.N
		leaf.Value = fresh.Value
		leaf.Impurity = fresh.Impurity
		leaf.ClassCounts = fresh.ClassCounts
	}
}

// refitSubtrees regrows just the stale leaves' subtrees on their routed
// row subsets, reusing the globally maintained presorted orders by a
// single filtering pass per feature.
func (r *Refitter) refitSubtrees(ctx context.Context, rowLeaf []int32, leafN []int, stale []bool) error {
	t := r.tree
	leaves := t.Leaves()

	// Keep the surviving structure's stats current first.
	r.refreshLeafStats(ctx, rowLeaf, leafN, stale)

	// Row sets per stale leaf, in ascending row order (the same order a
	// full fit's root partition would deliver them in).
	idxOf := rowsOf(rowLeaf, leafN, func(l int) bool { return stale[l] })
	// One pass per numeric feature distributes its global sorted order
	// into per-leaf sorted views — the presorted-order reuse that makes
	// the incremental path cheaper than re-sorting.
	sortedOf := make([][][]int32, len(leaves))
	for l := range leaves {
		if stale[l] {
			sortedOf[l] = make([][]int32, len(r.feats))
		}
	}
	for fi, s := range r.sorted {
		if s == nil {
			continue
		}
		for _, row := range s {
			if l := rowLeaf[row]; stale[l] {
				sortedOf[l][fi] = append(sortedOf[l][fi], row)
			}
		}
	}

	depth, parent, leftOf := r.leafTopology()

	// Regrow each stale leaf in LeafID order (deterministic), sharing
	// one engine whose buffers are sized to the full row count. Its
	// tree shell collects subtree importance, folded into the live
	// tree's totals afterwards. CP gates splits against the *current*
	// root impurity over all rows, the same yardstick a full refit
	// would use.
	e := r.engine(ctx)
	g := newGrower(e.fit, e, e.impurity(e.aggregate(nil)))
	for l, leaf := range leaves {
		if !stale[l] {
			continue
		}
		if len(idxOf[l]) == 0 {
			// Drifted to empty: keep the leaf with zero population.
			leaf.N = 0
			continue
		}
		agg := e.aggregate(idxOf[l])
		fresh := e.makeNode(agg)
		g.grow(fresh, agg, nodeRows{idx: idxOf[l], sorted: sortedOf[l]}, depth[l])
		if err := ctx.Err(); err != nil {
			return err
		}
		switch {
		case parent[l] == nil:
			t.Root = fresh
		case leftOf[l]:
			parent[l].Left = fresh
		default:
			parent[l].Right = fresh
		}
	}
	for fi, gain := range e.tree.importanceRaw {
		t.importanceRaw[fi] += gain
	}
	t.numberLeaves()
	r.adopt(t)
	return nil
}

// rowsOf lists, for each populated leaf that keep selects, the rows
// routed to it in ascending row order.
func rowsOf(rowLeaf []int32, leafN []int, keep func(l int) bool) [][]int {
	idxOf := make([][]int, len(leafN))
	for l, n := range leafN {
		if n > 0 && keep(l) {
			idxOf[l] = make([]int, 0, n)
		}
	}
	for row, l := range rowLeaf {
		if idxOf[l] != nil {
			idxOf[l] = append(idxOf[l], row)
		}
	}
	return idxOf
}

// leafTopology returns, per LeafID, the leaf's depth, parent node (nil
// for a root leaf), and whether it is its parent's left child.
func (r *Refitter) leafTopology() (depth []int, parent []*Node, leftOf []bool) {
	n := r.tree.NumLeaves()
	depth = make([]int, n)
	parent = make([]*Node, n)
	leftOf = make([]bool, n)
	var walk func(nd, par *Node, left bool, d int)
	walk = func(nd, par *Node, left bool, d int) {
		if nd.IsLeaf() {
			depth[nd.LeafID] = d
			parent[nd.LeafID] = par
			leftOf[nd.LeafID] = left
			return
		}
		walk(nd.Left, nd, true, d+1)
		walk(nd.Right, nd, false, d+1)
	}
	walk(r.tree.Root, nil, false, 0)
	return depth, parent, leftOf
}

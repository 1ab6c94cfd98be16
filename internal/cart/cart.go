// Package cart implements Classification and Regression Trees (Breiman
// et al., 1984) from scratch: the learner behind the paper's multi-factor
// (MF) analysis, equivalent in role to the R rpart package the authors
// used.
//
// Capabilities:
//   - regression trees (variance / SSE splitting) and classification
//     trees (Gini impurity);
//   - continuous, ordinal, and nominal features; nominal splits use the
//     optimal category-ordering theorem (sort categories by mean response
//     and scan, which is exact for regression and two-class problems);
//   - missing-value tolerance: non-finite feature cells, and nominal
//     cells that name no level, are treated as missing — splits are
//     searched over available cases only, and
//     missing rows follow the majority child (rpart's surrogate-free
//     fallback), at training and prediction time alike;
//   - stopping rules (max depth, minimum node/leaf sizes, minimum
//     relative improvement, mirroring rpart's cp);
//   - weakest-link cost-complexity pruning;
//   - relative variable importance (rpart-style, scaled to 100);
//   - leaf extraction and row→leaf assignment, which the paper uses to
//     cluster racks with similar failure behaviour (Q1).
//
// Performance model: two split-search engines share one growing loop
// (grow.go). The grower owns the recursion, the stopping rule, the CP
// gate, node statistics and the per-node search, which fans the
// candidate features across a bounded worker pool (Config.Workers) and
// reduces the winner in feature order with a strict impurity
// tie-break, so trees are byte-identical for every worker count. An
// engine supplies a node view and three steps over it: search one
// feature, split the view into its children's, release it. The exact
// engine (this file) orders each continuous/ordinal feature's finite
// rows once per Fit, by a linear-time LSD radix sort on keys that map
// the float order to the unsigned order (−0 folded into +0), and scans
// rows; child nodes inherit the sorted order by a stable in-place
// partition (rank filtering) instead of re-sorting. The
// histogram-binned engine (binned.go, LightGBM-style) engages
// automatically at fleet scale (Config.Split, AutoBinRows): continuous
// features are quantized once to at most Config.Bins quantile bins,
// nodes scan per-bin statistics instead of rows, and each child's
// histogram is built from the smaller side and subtracted from the
// parent's for the sibling. Every histogram search — binned numeric,
// and the category-ordering search over nominal levels in either
// engine — ends in one prefix-scan kernel, so nominal and ordinal
// search is exact in both engines. Both read a missing frame cell as
// its column's in-band sentinel (see frame.Column): the binned engine
// codes it straight to its missing code, the exact engine scans it as
// a non-finite value.
package cart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"rainshine/internal/frame"
	"rainshine/internal/parallel"
)

// Task selects the tree type.
type Task int

const (
	// Regression grows a tree minimizing sum of squared errors.
	Regression Task = iota
	// Classification grows a tree minimizing Gini impurity. The target
	// column must be categorical.
	Classification
)

// SplitMethod selects the split-search engine.
type SplitMethod int

const (
	// SplitAuto (the zero value) picks the engine by training size:
	// exact below AutoBinRows rows, binned at or above. Small fits —
	// everything the paper-scale pipelines feed through Q1/Q2 — keep
	// the exact engine and stay byte-identical with earlier releases.
	SplitAuto SplitMethod = iota
	// SplitExact forces the presort-based exact search.
	SplitExact
	// SplitBinned forces the histogram-binned search. Continuous
	// features are quantized to at most Config.Bins quantile bins;
	// nominal and ordinal features use their level sets as bins, which
	// keeps their search exact. Falls back to the exact engine when any
	// categorical feature has more than 255 levels (the level index
	// must fit a byte alongside the missing sentinel).
	SplitBinned
)

const (
	// DefaultBins is the bin budget per continuous feature when
	// Config.Bins is zero: the largest count a byte code can address
	// once 255 is reserved for missing cells.
	DefaultBins = 255
	// AutoBinRows is the training size at which SplitAuto switches
	// from exact to binned search: 4 full frame chunks, past which the
	// O(n log n) presort and per-node O(n) scans dominate fit time.
	AutoBinRows = 4 * frame.ChunkRows
	// missingCode is the reserved byte code for missing feature cells
	// in the binned engine.
	missingCode = 255
)

// BinsRangeError reports a Config.Bins value outside the representable
// range. The binned engine needs at least two bins to express a split
// and at most 255 so every bin code plus the missing sentinel fits a
// byte. Option and flag layers surface this at configuration time
// (errors.As-matchable); Config.withDefaults still clamps silently for
// callers that construct a Config directly.
type BinsRangeError struct {
	Bins int
}

func (e *BinsRangeError) Error() string {
	return fmt.Sprintf("cart: bins %d out of range [2, 255] (0 means the default %d)", e.Bins, DefaultBins)
}

// ValidateBins checks a bin-budget setting at configuration time: 0 is
// "use DefaultBins"; anything else must land in [2, 255]. Returns a
// *BinsRangeError otherwise.
func ValidateBins(n int) error {
	if n == 0 || (n >= 2 && n <= 255) {
		return nil
	}
	return &BinsRangeError{Bins: n}
}

// Config holds the stopping and growth rules.
type Config struct {
	Task Task
	// MaxDepth limits tree depth; root is depth 0. Zero means 10.
	MaxDepth int
	// MinSplit is the minimum number of rows a node needs before a
	// split is attempted. Zero means 20 (rpart default).
	MinSplit int
	// MinLeaf is the minimum number of rows in each child. Zero means
	// MinSplit/3, floor 1 (rpart default).
	MinLeaf int
	// CP is the complexity parameter: a split must reduce the tree's
	// total impurity by at least CP * root impurity. Zero means 0.01
	// (rpart default). Negative means no improvement threshold.
	CP float64
	// Workers bounds the goroutines used by the per-node split search
	// (and by CrossValidate's fold fan-out). Below 1 means GOMAXPROCS;
	// 1 forces the serial path. The fitted tree is byte-identical for
	// every worker count.
	Workers int
	// Split selects the split-search engine; see SplitMethod. The zero
	// value (SplitAuto) switches by training size at AutoBinRows.
	Split SplitMethod
	// Bins caps the number of histogram bins per continuous feature in
	// the binned engine. Zero means DefaultBins; values are clamped to
	// [2, 255]. Ignored by the exact engine.
	Bins int
}

func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 10
	}
	if c.MinSplit == 0 {
		c.MinSplit = 20
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = c.MinSplit / 3
		if c.MinLeaf < 1 {
			c.MinLeaf = 1
		}
	}
	if c.CP == 0 {
		c.CP = 0.01
	}
	if c.Bins == 0 {
		c.Bins = DefaultBins
	}
	if c.Bins < 2 {
		c.Bins = 2
	}
	if c.Bins > 255 {
		c.Bins = 255
	}
	return c
}

// Feature describes one predictor used by a tree.
type Feature struct {
	Name   string
	Kind   frame.Kind
	Levels []string // for categorical features
}

// Node is one tree node. Leaves have Left == Right == nil.
type Node struct {
	// Split definition (internal nodes only).
	Feature   int     // index into Tree.Features
	Threshold float64 // continuous/ordinal: left if x <= Threshold
	LeftSet   []uint64
	// DefaultLeft routes values unseen at training time (e.g. a nominal
	// level absent from this node) toward the larger child.
	DefaultLeft bool

	Left, Right *Node

	// Statistics (all nodes).
	N           int
	Value       float64   // mean response (regression) or majority class index
	Impurity    float64   // SSE (regression) or weighted Gini (classification)
	ClassCounts []float64 // classification only

	// LeafID numbers leaves left-to-right; -1 for internal nodes.
	LeafID int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// inLeftSet reports whether category c routes left.
func (n *Node) inLeftSet(c int) bool {
	w := c / 64
	if w < 0 || w >= len(n.LeftSet) {
		return false
	}
	return n.LeftSet[w]&(1<<(uint(c)%64)) != 0
}

// Tree is a fitted CART model.
type Tree struct {
	Root     *Node
	Features []Feature
	Target   string
	Task     Task
	// ClassLevels holds target levels for classification trees.
	ClassLevels []string
	// importanceRaw accumulates impurity decrease per feature.
	importanceRaw []float64
	leaves        []*Node
}

// Fit grows a tree predicting target from the named feature columns of
// f. It is FitContext with context.Background(); use that variant to
// make a long fit cancellable.
func Fit(f *frame.Frame, target string, features []string, cfg Config) (*Tree, error) {
	return FitContext(context.Background(), f, target, features, cfg)
}

// FitContext is Fit under a context: when ctx is canceled the split
// search stops at its next checkpoint and the context's error is
// returned instead of a partially grown tree.
func FitContext(ctx context.Context, f *frame.Frame, target string, features []string, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if f.NumRows() == 0 {
		return nil, errors.New("cart: empty frame")
	}
	if len(features) == 0 {
		return nil, errors.New("cart: no features")
	}
	tc, err := f.Col(target)
	if err != nil {
		return nil, err
	}
	t := &Tree{Target: target, Task: cfg.Task}
	// Materialize the target (Values decodes typed label columns to
	// dense float64 class indices). A missing target is an error: a row
	// without a response cannot train.
	var y []float64
	switch cfg.Task {
	case Regression:
	case Classification:
		if tc.Kind == frame.Continuous {
			return nil, fmt.Errorf("cart: classification target %q must be categorical", target)
		}
		t.ClassLevels = tc.Levels
	default:
		return nil, fmt.Errorf("cart: unknown task %d", cfg.Task)
	}
	for i, n := 0, tc.Len(); i < n; i++ {
		if tc.Missing(i) {
			return nil, fmt.Errorf("cart: missing target at row %d", i)
		}
	}
	y = tc.Values()
	// Materialize features.
	colRefs := make([]*frame.Column, len(features))
	for i, name := range features {
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		if name == target {
			return nil, fmt.Errorf("cart: target %q used as feature", name)
		}
		// Missing feature cells are legal: they are handled by
		// available-case splitting and majority-side routing.
		colRefs[i] = c
		t.Features = append(t.Features, Feature{Name: name, Kind: c.Kind, Levels: c.Levels})
	}
	t.importanceRaw = make([]float64, len(features))

	fc := newFit(ctx, cfg, t, y)
	if chooseBinned(cfg, f.NumRows(), t.Features) {
		e, root, err := newBinned(fc, colRefs)
		if err != nil {
			return nil, err
		}
		return growTree(fc, e, root)
	}
	// Exact engine: flatten each feature to a dense value slice, with
	// missing cells as the non-finite values the scans expect (Values
	// decodes a typed column's sentinel codes to NaN).
	cols := make([][]float64, len(colRefs))
	for i, c := range colRefs {
		cols[i] = c.Values()
	}
	e := newPresorted(fc, cols)
	root, err := e.presort()
	if err != nil {
		return nil, err
	}
	return growTree(fc, e, root)
}

// chooseBinned decides whether the fit runs on the histogram-binned
// engine. Structural limit: every categorical level index must fit a
// byte code next to the missing sentinel, else the exact engine runs
// regardless of the requested method.
func chooseBinned(cfg Config, rows int, feats []Feature) bool {
	switch cfg.Split {
	case SplitExact:
		return false
	case SplitBinned:
	default: // SplitAuto
		if rows < AutoBinRows {
			return false
		}
	}
	for _, ft := range feats {
		if len(ft.Levels) > missingCode {
			return false
		}
	}
	return true
}

// nodeRows is the presorted engine's node view: the row set in
// partition order, plus — for every continuous/ordinal feature — the
// finite subset presorted by (value, row index), −0 and +0 being equal
// values. Children inherit the sorted order through a stable in-place
// partition, so sorting happens exactly once per Fit.
type nodeRows struct {
	idx    []int
	sorted [][]int32 // per feature; nil for nominal features
}

// presorted is the exact engine. It scans every row of a node: numeric
// features in their presorted order, nominal features through a level
// histogram filled from the node's rows.
type presorted struct {
	*fit
	cols   [][]float64
	side   []uint8 // row → child side during a partition
	idxTmp []int   // partition scratch for idx
}

// newPresorted sizes the engine's buffers for every training row.
func newPresorted(f *fit, cols [][]float64) *presorted {
	e := &presorted{fit: f, cols: cols, side: make([]uint8, len(f.y)), idxTmp: make([]int, len(f.y))}
	maxLevels := 0
	for _, ft := range f.tree.Features {
		maxLevels = max(maxLevels, len(ft.Levels))
	}
	f.sizeScratch(maxLevels)
	for _, sc := range f.scratch {
		sc.hist = make([]float64, maxLevels*f.statW, maxLevels*f.statW+pad)
		sc.spill = make([]int32, 0, len(f.y))
	}
	return e
}

// presort builds the root view: every feature's finite rows sorted once
// by (value, row index), −0 and +0 tying — the canonical order rank
// filtering preserves down the tree. The per-feature radix sorts run
// through the pool, each ping-ponging through its worker slot's spill
// buffer.
func (e *presorted) presort() (nodeRows, error) {
	nRows := len(e.y)
	idx := make([]int, nRows)
	for i := range idx {
		idx[i] = i
	}
	root := nodeRows{idx: idx, sorted: make([][]int32, len(e.cols))}
	err := parallel.ForEachWorker(e.ctx, e.cfg.Workers, len(e.cols), func(w, fi int) error {
		if e.tree.Features[fi].Kind == frame.Nominal {
			return nil
		}
		sc := e.scratch[w]
		if sc.counts == nil {
			sc.counts = new(digitCounts)
		}
		root.sorted[fi] = sortedFinite(e.cols[fi], 0, nRows, sc.spill[:nRows], sc.counts)
		return nil
	})
	return root, err
}

// The presort's radix: keyDigits digits of digitBits bits each. Eight-bit
// digits keep all eight histograms (8 KB) in L1 and cost short columns
// little to clear and prefix-sum, so one path serves every length.
const (
	digitBits = 8
	keyDigits = 64 / digitBits
)

// digitCounts holds one histogram per key digit. The presort keeps one
// per worker slot, on the heap: a pool goroutine starts on a small
// stack, which 8 KB would make it grow on every call.
type digitCounts [keyDigits][1 << digitBits]int32

// sortKey maps a finite cell to a key whose unsigned order is the float
// order. −0 is folded into +0 first: the two compare equal, so they must
// share a key for equal values to stay in row order.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortedFinite returns the rows in [lo, hi) whose cell in col is finite,
// sorted by (value, row index): a total order, so ties break by row. It
// is a stable LSD radix sort over the rows taken in row order, so equal
// values keep their row order. One pass filters the finite rows and
// fills every digit's histogram; each digit that not every key shares
// then costs one scatter pass, which recomputes the keys from col
// rather than storing them. Integer-valued and float32-widened columns
// share their low digits, so they skip most passes. tmp is the
// ping-pong buffer, of length at least hi-lo; cnt is overwritten.
func sortedFinite(col []float64, lo, hi int, tmp []int32, cnt *digitCounts) []int32 {
	*cnt = digitCounts{}
	s := make([]int32, 0, hi-lo)
	for r := lo; r < hi; r++ {
		v := col[r]
		if !isFinite(v) {
			continue
		}
		s = append(s, int32(r))
		k := sortKey(v)
		for d := range cnt {
			cnt[d][uint8(k>>(d*digitBits))]++
		}
	}
	n := len(s)
	if n < 2 {
		return s
	}
	src, dst := s, tmp[:n]
	first := sortKey(col[s[0]])
	for d := range cnt {
		shift, c := d*digitBits, &cnt[d]
		if c[uint8(first>>shift)] == int32(n) {
			continue // every key shares this digit
		}
		var sum int32
		for b, m := range c {
			c[b] = sum
			sum += m
		}
		for _, r := range src {
			b := uint8(sortKey(col[r]) >> shift)
			dst[c[b]] = r
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return s
}

func (e *presorted) search(sc *scratch, fi int, v nodeRows, sp *split) bool {
	if e.tree.Features[fi].Kind == frame.Nominal {
		return e.nominal(sc, fi, v.idx, sp)
	}
	return e.numeric(sc, fi, v.sorted[fi], sp)
}

func (e *presorted) split(n *Node, _ *split, _ nodeAgg, v nodeRows, _ int) (lagg, ragg nodeAgg, lv, rv nodeRows) {
	lv, rv = e.partition(n, v)
	return e.aggregate(lv.idx), e.aggregate(rv.idx), lv, rv
}

func (e *presorted) release(nodeRows) {}

// level returns the level a nominal cell names. A non-finite cell, or
// one outside the level table, names none and counts as missing.
func level(v float64, nLevels int) (int, bool) {
	if !isFinite(v) {
		return 0, false
	}
	c := int(v)
	return c, c >= 0 && c < nLevels
}

// partition routes the node's rows through its split. Rows with a
// missing split value — non-finite, or a nominal cell that names no
// level — follow the majority child, the same route they take at
// prediction time. The row set is rearranged in place to [left | right]
// (each side keeping available rows in order, then the missing rows),
// and every feature's presorted list is stably split so children never
// re-sort.
func (e *presorted) partition(n *Node, rows nodeRows) (left, right nodeRows) {
	ft := e.tree.Features[n.Feature]
	nominal, nLevels := ft.Kind == frame.Nominal, len(ft.Levels)
	col, side, idx := e.cols[n.Feature], e.side, rows.idx

	// Route every row: side 0 is left, 1 right, 2 missing until the
	// majority side is known.
	var cnt [3]int
	for _, r := range idx {
		v, s := col[r], uint8(1)
		if nominal {
			if c, ok := level(v, nLevels); !ok {
				s = 2
			} else if n.inLeftSet(c) {
				s = 0
			}
		} else if !isFinite(v) {
			s = 2
		} else if v <= n.Threshold {
			s = 0
		}
		side[r] = s
		cnt[s]++
	}
	n.DefaultLeft = cnt[0] >= cnt[1]
	leftTotal, miss := cnt[0], uint8(1)
	if n.DefaultLeft {
		leftTotal, miss = cnt[0]+cnt[2], 0
	}
	// Scatter into [finite-left, missing?][finite-right, missing?],
	// preserving the original row order within each group.
	tmp := e.idxTmp[:len(idx)]
	pos := [3]int{0, leftTotal, cnt[0]}
	if !n.DefaultLeft {
		pos[2] = leftTotal + cnt[1]
	}
	for _, r := range idx {
		s := side[r]
		tmp[pos[s]] = r
		pos[s]++
		if s == 2 {
			side[r] = miss
		}
	}
	copy(idx, tmp)

	left = nodeRows{idx: idx[:leftTotal], sorted: make([][]int32, len(rows.sorted))}
	right = nodeRows{idx: idx[leftTotal:], sorted: make([][]int32, len(rows.sorted))}

	// Rank filtering: stable in-place partition of each feature's sorted
	// rows by child side; the relative (value, row) order survives, so
	// children reuse it directly. Fanned across the pool — each feature's
	// list is independent and each worker slot has its own spill buffer.
	parallel.ForEachWorker(e.ctx, e.cfg.Workers, len(rows.sorted), func(w, fi int) error {
		s := rows.sorted[fi]
		if s == nil {
			return nil
		}
		spill := e.scratch[w].spill[:0]
		k := 0
		for _, r := range s {
			if side[r] == 0 {
				s[k] = r
				k++
			} else {
				spill = append(spill, r)
			}
		}
		copy(s[k:], spill)
		e.scratch[w].spill = spill[:0]
		left.sorted[fi] = s[:k]
		right.sorted[fi] = s[k:]
		return nil
	})
	return left, right
}

// isFinite reports whether a feature cell carries a usable value.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// numeric scans the presorted finite rows of a continuous or ordinal
// feature. Missing cells were excluded when the sorted view was built
// (available-case splitting), and the node's view arrives already
// ordered, so the scan is a single O(n) pass.
func (e *presorted) numeric(sc *scratch, fi int, sorted []int32, sp *split) bool {
	// Locals: the compiler reloads fields through e on every iteration.
	col, y, minLeaf, k := e.cols[fi], e.y, e.cfg.MinLeaf, e.nClasses
	n := len(sorted)
	if n < 2*minLeaf || n < 2 {
		return false
	}

	bestPos, bestGain := -1, 0.0
	if e.cfg.Task == Regression {
		totalSum, totalSq := 0.0, 0.0
		for _, r := range sorted {
			totalSum += y[r]
			totalSq += y[r] * y[r]
		}
		parentImp := totalSq - totalSum*totalSum/float64(n)
		leftSum, leftSq := 0.0, 0.0
		for i := 0; i < n-1; i++ {
			r := sorted[i]
			leftSum += y[r]
			leftSq += y[r] * y[r]
			if col[sorted[i]] == col[sorted[i+1]] {
				continue // cannot split between equal values
			}
			nl, nr := i+1, n-i-1
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			childImp := (leftSq - leftSum*leftSum/float64(nl)) +
				(rightSq - rightSum*rightSum/float64(nr))
			if g := parentImp - childImp; g > bestGain {
				bestGain, bestPos = g, i
			}
		}
	} else {
		// Class-count buffers come from the worker slot's scratch: two
		// scans never share a slot concurrently, so zeroing is the only
		// per-call cost.
		total := sc.total[:k]
		left := sc.left[:k]
		clear(total)
		clear(left)
		for _, r := range sorted {
			total[int(y[r])]++
		}
		parentImp := giniSSE(total, float64(n))
		for i := 0; i < n-1; i++ {
			left[int(y[sorted[i]])]++
			if col[sorted[i]] == col[sorted[i+1]] {
				continue
			}
			nl, nr := i+1, n-i-1
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			childImp := giniFromLeft(left, total, sc.right[:k], float64(nl), float64(nr))
			if g := parentImp - childImp; g > bestGain {
				bestGain, bestPos = g, i
			}
		}
	}
	if bestPos < 0 {
		return false
	}
	thr := (col[sorted[bestPos]] + col[sorted[bestPos+1]]) / 2
	*sp = split{feature: fi, threshold: thr, gain: bestGain}
	return true
}

// nominal fills the node's level histogram for nominal feature fi from
// its finite rows, in row order, and runs the shared category-ordering
// search over it. The finite totals are accumulated in the same row
// order, not summed over level cells, so gains keep their low bits.
func (e *presorted) nominal(sc *scratch, fi int, idx []int, sp *split) bool {
	col, y, statW := e.cols[fi], e.y, e.statW
	nLevels := len(e.tree.Features[fi].Levels)
	block := sc.hist[:nLevels*statW]
	clear(block)
	var counts []float64
	if e.cfg.Task == Classification {
		counts = sc.total
		clear(counts)
	}
	var n, sum, sq float64
	for _, r := range idx {
		c, ok := level(col[r], nLevels)
		if !ok {
			continue // available-case: missing rows sit out the search
		}
		v := y[r]
		n++
		if counts != nil {
			block[c*statW+int(v)]++
			counts[int(v)]++
			continue
		}
		block[3*c]++
		block[3*c+1] += v
		block[3*c+2] += v * v
		sum += v
		sq += v * v
	}
	finite := nodeAgg{n: n, sum: sum, sq: sq, counts: counts}
	return e.nominalSplit(sc, fi, block, &finite, sp)
}

// numberLeaves assigns LeafID values in left-to-right order and caches
// the leaf list.
func (t *Tree) numberLeaves() {
	t.leaves = t.leaves[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			n.LeafID = len(t.leaves)
			t.leaves = append(t.leaves, n)
			return
		}
		n.LeafID = -1
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
}

// Leaves returns the tree's leaves in left-to-right order.
func (t *Tree) Leaves() []*Node { return t.leaves }

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// Depth returns the depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var d func(n *Node) int
	d = func(n *Node) int {
		if n.IsLeaf() {
			return 0
		}
		l, r := d(n.Left), d(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return d(t.Root)
}

// leafFor routes one row (given as per-feature values) to its leaf.
func (t *Tree) leafFor(x []float64) *Node {
	n := t.Root
	for !n.IsLeaf() {
		feat := t.Features[n.Feature]
		v := x[n.Feature]
		var goLeft bool
		switch {
		case !isFinite(v):
			// Missing value: follow the majority child, mirroring the
			// training-time assignment.
			goLeft = n.DefaultLeft
		case feat.Kind == frame.Nominal:
			c := int(v)
			if c < 0 || c >= len(feat.Levels) {
				goLeft = n.DefaultLeft
			} else {
				goLeft = n.inLeftSet(c)
			}
		default:
			goLeft = v <= n.Threshold
		}
		if goLeft {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Predict returns the model output for one row of feature values, in the
// order of Tree.Features. For regression this is the leaf mean; for
// classification the majority class index.
func (t *Tree) Predict(x []float64) (float64, error) {
	if len(x) != len(t.Features) {
		return 0, fmt.Errorf("cart: got %d features, want %d", len(x), len(t.Features))
	}
	return t.leafFor(x).Value, nil
}

// ProbaFrameContext returns, for every row of f, the probability of the
// class with the given index (classification trees only). The per-row
// routing is fanned over workers (rows are independent; the output is
// index-addressed, so the result is identical for every worker count).
func (t *Tree) ProbaFrameContext(ctx context.Context, f *frame.Frame, class, workers int) ([]float64, error) {
	if t.Task != Classification {
		return nil, errors.New("cart: ProbaFrameContext requires a classification tree")
	}
	if class < 0 || class >= len(t.ClassLevels) {
		return nil, fmt.Errorf("cart: class %d out of range [0,%d)", class, len(t.ClassLevels))
	}
	cols, err := t.featureCols(f)
	if err != nil {
		return nil, err
	}
	out := make([]float64, f.NumRows())
	err = t.forEachRowChunk(ctx, workers, f.NumRows(), cols, func(r int, leaf *Node) {
		total := 0.0
		for _, cc := range leaf.ClassCounts {
			total += cc
		}
		if total > 0 {
			out[r] = leaf.ClassCounts[class] / total
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PredictFrameContext predicts every row of f, which must contain the
// tree's feature columns, with the per-row routing fanned over workers;
// results are identical for every worker count.
func (t *Tree) PredictFrameContext(ctx context.Context, f *frame.Frame, workers int) ([]float64, error) {
	cols, err := t.featureCols(f)
	if err != nil {
		return nil, err
	}
	out := make([]float64, f.NumRows())
	err = t.forEachRowChunk(ctx, workers, f.NumRows(), cols, func(r int, leaf *Node) {
		out[r] = leaf.Value
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachRowChunk routes every row to its leaf, chunked across the pool;
// each chunk keeps its own feature buffer.
func (t *Tree) forEachRowChunk(ctx context.Context, workers, rows int, cols [][]float64, visit func(r int, leaf *Node)) error {
	chunks := parallel.Chunks(rows, parallel.Workers(workers))
	return parallel.ForEach(ctx, workers, len(chunks), func(ci int) error {
		x := make([]float64, len(cols))
		for r := chunks[ci][0]; r < chunks[ci][1]; r++ {
			for i, c := range cols {
				x[i] = c[r]
			}
			visit(r, t.leafFor(x))
		}
		return nil
	})
}

// AssignLeaves returns the LeafID for every row of f. The paper uses
// this to cluster racks into groups with similar failure behaviour.
func (t *Tree) AssignLeaves(f *frame.Frame) ([]int, error) {
	cols, err := t.featureCols(f)
	if err != nil {
		return nil, err
	}
	out := make([]int, f.NumRows())
	x := make([]float64, len(cols))
	for r := range out {
		for i, c := range cols {
			x[i] = c[r]
		}
		out[r] = t.leafFor(x).LeafID
	}
	return out, nil
}

func (t *Tree) featureCols(f *frame.Frame) ([][]float64, error) {
	cols := make([][]float64, len(t.Features))
	for i, feat := range t.Features {
		c, err := f.Col(feat.Name)
		if err != nil {
			return nil, err
		}
		// Missing cells route like any other missing value (majority
		// child), so surface them as the NaN sentinel leafFor checks.
		cols[i] = c.Values()
	}
	return cols, nil
}

// Importance returns per-feature relative importance scaled so the most
// important feature scores 100 (rpart's convention). Features never used
// in a split score 0.
func (t *Tree) Importance() map[string]float64 {
	out := make(map[string]float64, len(t.Features))
	maxRaw := 0.0
	for _, v := range t.importanceRaw {
		if v > maxRaw {
			maxRaw = v
		}
	}
	for i, feat := range t.Features {
		if maxRaw == 0 {
			out[feat.Name] = 0
			continue
		}
		// Divide before scaling so the top feature is exactly 100 (the
		// other order can overshoot by an ulp).
		out[feat.Name] = 100 * (t.importanceRaw[i] / maxRaw)
	}
	return out
}

// RankedFeatures returns feature names ordered by decreasing importance.
func (t *Tree) RankedFeatures() []string {
	type fi struct {
		name string
		imp  float64
	}
	list := make([]fi, len(t.Features))
	imp := t.Importance()
	for i, f := range t.Features {
		list[i] = fi{f.Name, imp[f.Name]}
	}
	slices.SortStableFunc(list, func(a, b fi) int {
		switch {
		case a.imp > b.imp:
			return -1
		case a.imp < b.imp:
			return 1
		}
		return 0
	})
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = e.name
	}
	return out
}

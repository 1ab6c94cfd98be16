package cart

// The growing loop both split-search engines share (see the package
// doc), and the prefix-scan kernel every histogram search ends in.
// Histogram cells hold count, Σy and Σy² (regression) or class counts
// (classification); the kernel scans an ordered list of cells and
// evaluates a cut after each one. The binned numeric search passes the
// occupied bins in code order; the nominal search, in both engines,
// passes the present levels sorted by mean response or first-class
// share.

import (
	"context"
	"slices"

	"rainshine/internal/parallel"
)

// engine is a split-search strategy over node views of type V.
type engine[V any] interface {
	// search writes feature fi's best split over view v to sp, using
	// the worker slot's scratch, and reports whether there is one.
	search(sc *scratch, fi int, v V, sp *split) bool
	// split routes v's rows through n's split, sets n.DefaultLeft, and
	// returns the children's aggregates and views. depth is n's depth.
	split(n *Node, sp *split, agg nodeAgg, v V, depth int) (lagg, ragg nodeAgg, lv, rv V)
	// release hands back a view that will not be split.
	release(v V)
}

// nodeAgg carries a node's response aggregates: count, Σy and Σy² for
// regression, class counts for classification.
type nodeAgg struct {
	n, sum, sq float64
	counts     []float64
}

// split is one candidate split plus the finite-case aggregates its scan
// saw (the left side and the total), from which the binned engine
// derives child statistics without re-scanning rows.
type split struct {
	feature      int
	bin          int // binned numeric: last byte code routed left
	threshold    float64
	leftSet      []uint64
	gain         float64
	left, finite nodeAgg
}

// scratch holds one worker slot's reusable search buffers.
type scratch struct {
	cells              []int     // histogram cells in scan order
	score              []float64 // nominal: per-level order key
	hist               []float64 // presorted nominal: the level histogram
	left, right, total []float64 // class counts
	spill              []int32   // presorted partition spill buffer
}

// pad is the spare capacity, in float64s, after each worker's hot
// buffers, so that two workers' per-row writes never share a cache line.
const pad = 16

// fit is the state every part of one tree fit reads.
type fit struct {
	cfg      Config
	ctx      context.Context
	tree     *Tree
	y        []float64
	nClasses int
	statW    int // floats per histogram cell
	workers  int
	scratch  []*scratch
	// counts holds, per feature, the class-count aggregates of its best
	// split: finite totals, then the left side. Reused by every search,
	// so a split's counts live until the next search of its feature.
	counts [][]float64
}

func newFit(ctx context.Context, cfg Config, t *Tree, y []float64) *fit {
	f := &fit{cfg: cfg, ctx: ctx, tree: t, y: y, statW: 3, workers: parallel.Workers(cfg.Workers)}
	if cfg.Task == Classification {
		f.nClasses = len(t.ClassLevels)
		f.statW = f.nClasses
		f.counts = make([][]float64, len(t.Features))
		for fi := range f.counts {
			f.counts[fi] = make([]float64, 2*f.nClasses)
		}
	}
	return f
}

// sizeScratch gives every worker slot buffers for histograms of up to
// maxCells cells.
func (f *fit) sizeScratch(maxCells int) {
	f.scratch = make([]*scratch, max(min(f.workers, len(f.tree.Features)), 1))
	k := f.nClasses
	for w := range f.scratch {
		cls := make([]float64, 3*k, 3*k+pad)
		f.scratch[w] = &scratch{
			cells: make([]int, 0, maxCells),
			score: make([]float64, maxCells),
			left:  cls[:k:k],
			right: cls[k : 2*k : 2*k],
			total: cls[2*k:],
		}
	}
}

// aggregate sums the responses of rows idx in that order; nil idx means
// every row in row order.
func (f *fit) aggregate(idx []int) nodeAgg {
	y, n := f.y, len(idx)
	if idx == nil {
		n = len(y)
	}
	a := nodeAgg{n: float64(n)}
	if f.cfg.Task == Classification {
		a.counts = make([]float64, f.nClasses)
		for i := 0; i < n; i++ {
			r := i
			if idx != nil {
				r = idx[i]
			}
			a.counts[int(y[r])]++
		}
		return a
	}
	// Locals, not nodeAgg fields, keep the running sums in registers.
	var sum, sq float64
	if idx == nil {
		for _, v := range y {
			sum += v
			sq += v * v
		}
	} else {
		for _, r := range idx {
			sum += y[r]
			sq += y[r] * y[r]
		}
	}
	a.sum, a.sq = sum, sq
	return a
}

// impurity is a node's SSE (regression) or N-weighted Gini
// (classification).
func (f *fit) impurity(a nodeAgg) float64 {
	if f.cfg.Task == Classification {
		return giniSSE(a.counts, a.n)
	}
	imp := a.sq - a.sum*(a.sum/a.n) // SSE = sum(y^2) - n*mean^2
	if imp < 0 {
		imp = 0 // guard against rounding
	}
	return imp
}

// makeNode materializes a node's statistics from its aggregates.
func (f *fit) makeNode(a nodeAgg) *Node {
	n := &Node{N: int(a.n), Feature: -1, LeafID: -1, Impurity: f.impurity(a)}
	if f.cfg.Task == Regression {
		n.Value = a.sum / a.n
		return n
	}
	n.ClassCounts = a.counts
	best := -1.0
	for c, cnt := range a.counts {
		if cnt > best {
			best, n.Value = cnt, float64(c)
		}
	}
	return n
}

// splittable is the stopping rule: whether a node at depth with
// aggregates a may be split.
func (f *fit) splittable(a nodeAgg, depth int) bool {
	return depth < f.cfg.MaxDepth && int(a.n) >= f.cfg.MinSplit && f.impurity(a) > 1e-12
}

// grower is the one recursive CART growth over an engine's views.
type grower[V any] struct {
	*fit
	eng       engine[V]
	minGain   float64
	featSplit []split
	featOK    []bool
}

// newGrower gates splits at CP times rootImpurity, the impurity of the
// whole training set.
func newGrower[V any](f *fit, eng engine[V], rootImpurity float64) *grower[V] {
	nf := len(f.tree.Features)
	g := &grower[V]{fit: f, eng: eng, featSplit: make([]split, nf), featOK: make([]bool, nf)}
	if f.cfg.CP > 0 {
		g.minGain = f.cfg.CP * rootImpurity
	}
	return g
}

// growTree grows f.tree from the root view over every training row and
// numbers its leaves.
func growTree[V any](f *fit, eng engine[V], root V) (*Tree, error) {
	agg := f.aggregate(nil)
	n := f.makeNode(agg)
	newGrower(f, eng, n.Impurity).grow(n, agg, root, 0)
	if err := f.ctx.Err(); err != nil {
		return nil, err
	}
	f.tree.Root = n
	f.tree.numberLeaves()
	return f.tree, nil
}

// grow recursively splits node n, whose rows are view v.
func (g *grower[V]) grow(n *Node, agg nodeAgg, v V, depth int) {
	if !g.splittable(agg, depth) {
		g.eng.release(v)
		return
	}
	sp := g.bestSplit(v)
	if sp == nil || sp.gain < g.minGain {
		g.eng.release(v)
		return
	}
	n.Feature = sp.feature
	n.Threshold = sp.threshold
	n.LeftSet = sp.leftSet
	g.tree.importanceRaw[sp.feature] += sp.gain

	lagg, ragg, lv, rv := g.eng.split(n, sp, agg, v, depth)
	n.Left = g.makeNode(lagg)
	n.Right = g.makeNode(ragg)
	g.grow(n.Left, lagg, lv, depth+1)
	g.grow(n.Right, ragg, rv, depth+1)
}

// bestSplit searches all features for the impurity-minimizing split,
// or returns nil. Features are searched concurrently; the winner is
// reduced in feature order with a strict greater-than on gain, so ties
// break toward the lower feature index exactly as a serial scan does.
// The split lives until the next search.
func (g *grower[V]) bestSplit(v V) *split {
	err := parallel.ForEachWorker(g.ctx, g.cfg.Workers, len(g.featSplit), func(w, fi int) error {
		g.featOK[fi] = g.eng.search(g.scratch[w], fi, v, &g.featSplit[fi])
		return nil
	})
	if err != nil {
		return nil // canceled: stop growing everywhere
	}
	var best *split
	for fi := range g.featSplit {
		if sp := &g.featSplit[fi]; g.featOK[fi] && (best == nil || sp.gain > best.gain) {
			best = sp
		}
	}
	return best
}

// cellN is the row count of histogram cell c.
func (f *fit) cellN(block []float64, c int) float64 {
	if f.cfg.Task == Regression {
		return block[3*c]
	}
	n := 0.0
	for _, v := range block[c*f.statW : (c+1)*f.statW] {
		n += v
	}
	return n
}

// scan is the prefix-scan kernel. cells lists histogram cells of block
// in scan order; the cut after position i sends cells[:i+1] left.
// finite holds the totals over the node's finite rows. It returns the
// best cut (-1 if none passes MinLeaf with a positive gain) and its
// gain.
func (f *fit) scan(sc *scratch, block []float64, cells []int, finite *nodeAgg) (int, float64) {
	minLeaf := float64(f.cfg.MinLeaf)
	bestCut, bestGain := -1, 0.0
	n, sum, sq := finite.n, finite.sum, finite.sq
	if f.cfg.Task == Regression {
		parentImp := sq - sum*sum/n
		var nl, sl, ql float64
		for i := 0; i+1 < len(cells); i++ {
			p := 3 * cells[i]
			nl += block[p]
			sl += block[p+1]
			ql += block[p+2]
			nr := n - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			sr := sum - sl
			childImp := (ql - sl*sl/nl) + ((sq - ql) - sr*sr/nr)
			if g := parentImp - childImp; g > bestGain {
				bestCut, bestGain = i, g
			}
		}
		return bestCut, bestGain
	}
	k := f.nClasses
	left := sc.left[:k]
	clear(left)
	parentImp := giniSSE(finite.counts, n)
	nl := 0.0
	for i := 0; i+1 < len(cells); i++ {
		for j, v := range block[cells[i]*k : cells[i]*k+k] {
			left[j] += v
			nl += v
		}
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		childImp := giniFromLeft(left, finite.counts, sc.right[:k], nl, nr)
		if g := parentImp - childImp; g > bestGain {
			bestCut, bestGain = i, g
		}
	}
	return bestCut, bestGain
}

// withAggs records sp's finite aggregates: finite itself (class counts
// copied out of the worker's scratch into the feature's buffer), and the
// left cells summed in scan order, which repeats the kernel's running
// sums bit for bit.
func (f *fit) withAggs(sp *split, block []float64, left []int, finite *nodeAgg) {
	sp.finite = *finite
	if f.cfg.Task == Regression {
		for _, c := range left {
			sp.left.n += block[3*c]
			sp.left.sum += block[3*c+1]
			sp.left.sq += block[3*c+2]
		}
		return
	}
	k := f.nClasses
	sp.finite.counts = f.counts[sp.feature][:k]
	copy(sp.finite.counts, finite.counts)
	sp.left.counts = f.counts[sp.feature][k:]
	clear(sp.left.counts)
	for _, c := range left {
		for j, v := range block[c*k : c*k+k] {
			sp.left.counts[j] += v
			sp.left.n += v
		}
	}
}

// nominalSplit is the category-ordering search over a nominal feature's
// level histogram: order the present levels by mean response
// (regression) or by first-class share (classification) and scan. The
// ordering is optimal for regression and two-class targets (Breiman et
// al., Thm 4.5); for multiclass it is a standard heuristic.
func (f *fit) nominalSplit(sc *scratch, fi int, block []float64, finite *nodeAgg, sp *split) bool {
	nLevels := len(f.tree.Features[fi].Levels)
	present := sc.cells[:0]
	for c := 0; c < nLevels; c++ {
		if cnt := f.cellN(block, c); cnt > 0 {
			present = append(present, c)
			key := block[c*f.statW] // first-class count
			if f.cfg.Task == Regression {
				key = block[3*c+1]
			}
			sc.score[c] = key / cnt
		}
	}
	slices.SortFunc(present, func(a, c int) int {
		switch {
		case sc.score[a] < sc.score[c]:
			return -1
		case sc.score[a] > sc.score[c]:
			return 1
		}
		return 0
	})
	cut, gain := f.scan(sc, block, present, finite)
	if cut < 0 {
		return false
	}
	set := make([]uint64, (nLevels+63)/64)
	for _, c := range present[:cut+1] {
		set[c/64] |= 1 << (uint(c) % 64)
	}
	*sp = split{feature: fi, leftSet: set, gain: gain}
	f.withAggs(sp, block, present[:cut+1], finite)
	return true
}

// giniSSE returns n * Gini for class counts.
func giniSSE(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	ss := 0.0
	for _, c := range counts {
		p := c / n
		ss += p * p
	}
	return n * (1 - ss)
}

// giniFromLeft computes the summed child impurity, filling the caller's
// right-count buffer instead of allocating.
func giniFromLeft(left, total, right []float64, nl, nr float64) float64 {
	lImp := giniSSE(left, nl)
	for i := range total {
		right[i] = total[i] - left[i]
	}
	return lImp + giniSSE(right[:len(total)], nr)
}

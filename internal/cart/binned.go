package cart

// Histogram-binned split search: the fleet-scale engine behind
// SplitBinned / SplitAuto, one of the two engines the grower in grow.go
// drives. Instead of presorting every feature and scanning rows at each
// node, each continuous feature is quantized once per Fit into at most
// Config.Bins quantile bins (byte codes), and a node's view is its range
// of the row permutation plus its histograms. The search scans each
// histogram through the shared kernel — O(bins) per feature per node
// after an O(rows) histogram build, with the sibling histogram obtained
// by subtraction so only the smaller child is ever scanned. Child
// statistics come arithmetically from the split's aggregates, so a node
// whose children will not split is never partitioned.
//
// Nominal and ordinal features keep their exact search: their level
// sets are the bins (one level, one bin), so the category-ordering scan
// and the ordinal level-order scan evaluate exactly the split positions
// the exact engine evaluates.
//
// Determinism contract: the quantizer samples on a fixed stride, the
// coding pass is chunked on frame.ChunkRows boundaries with per-chunk
// partials merged in chunk order, and histogram builds pick their shape
// (feature-parallel for wide frames and single-chunk nodes, chunk x
// feature-parallel with a chunk-ordered merge otherwise) from the data
// shape alone — never from the worker count, which would change float
// accumulation order. The permutation partition is a stable scatter
// whose parallel two-pass form produces the identical permutation to
// the serial form, so that choice alone may consult the worker count.
// The fitted tree is byte-identical for every worker count.
//
// Threshold consistency: training routes rows by byte code, prediction
// routes raw floats by Node.Threshold. The coding pass tracks each
// bin's global min and max; a split after bin p (next occupied bin q)
// gets threshold (binMax[p]+binMin[q])/2, which lies strictly between
// the two bins' value ranges, so code <= p and value <= threshold agree
// on every training row.

import (
	"math"
	"slices"

	"rainshine/internal/frame"
	"rainshine/internal/parallel"
)

const (
	// binSample caps the per-feature quantile sample size.
	binSample = 8192
	// binGrid is the resolution of the uniform value grid the byte LUT
	// quantizes through: value -> grid cell -> bin.
	binGrid = 1 << 16
	// wideFrameFeatures is the candidate-feature count at which the
	// histogram build stays feature-parallel for multi-chunk nodes: the
	// feature axis alone saturates the worker pool, and per-feature
	// blocks need no per-chunk slabs or merge. Below it, multi-chunk
	// nodes split each feature's scan across chunks. A shape rule only —
	// it must never consult the worker count (see the determinism
	// contract above).
	wideFrameFeatures = 64
)

// binFeat is the per-feature binning metadata.
type binFeat struct {
	// nb is the number of real bins (byte codes 0..nb-1); missing cells
	// code as missingCode. Zero for an all-missing feature.
	nb int

	// Continuous quantizer: code = lut[clamp(int((v-lo)*invCell))].
	lut     []uint8
	lo      float64
	invCell float64

	// Per-bin value ranges, for threshold construction (continuous:
	// observed global min/max; ordinal: the level index itself; nil for
	// nominal).
	binMin, binMax []float64
}

// binned is the histogram engine.
type binned struct {
	*fit
	n     int
	feats []binFeat
	codes [][]uint8 // per feature, original row order

	// perm is the node-ordered row permutation: each node owns a
	// contiguous [lo, hi) range. Partitions scatter perm stably, so the
	// original row order survives inside every node and histogram
	// builds stream monotonically through the code arrays.
	perm, permTmp []int32

	// Flat histogram layout: feature fi occupies [off[fi], off[fi+1]).
	off     []int
	histLen int
	pool    [][]float64

	// histPart is the pooled per-chunk slab buffer of the chunk x
	// feature-parallel histogram build (nChunks x histLen); grown lazily,
	// reused across nodes (the tree grows serially, so at most one
	// buildHist is in flight).
	histPart []float64
	// leftCnt holds the per-chunk left-row counts of the two-pass
	// parallel partition.
	leftCnt []int
}

// binView is a binned node's view: its perm[lo:hi] range and its
// histograms (nil for a node that will not split).
type binView struct {
	lo, hi int
	hist   []float64
}

// newBinned codes every feature to bytes, lays out the histogram space
// and returns the engine with its root view. Quantizer construction
// fans over features; the coding pass fans over (feature, chunk) tasks
// on frame.ChunkRows boundaries with per-task min/max partials merged
// in task order.
func newBinned(f *fit, cols []*frame.Column) (*binned, binView, error) {
	nf := len(cols)
	b := &binned{fit: f, n: len(f.y), feats: make([]binFeat, nf), codes: make([][]uint8, nf)}
	for fi := range cols {
		b.codes[fi] = make([]uint8, b.n)
	}
	b.perm = make([]int32, b.n)
	for i := range b.perm {
		b.perm[i] = int32(i)
	}
	b.permTmp = make([]int32, b.n)

	err := parallel.ForEach(b.ctx, b.cfg.Workers, nf, func(fi int) error {
		c := cols[fi]
		ft := &b.feats[fi]
		if c.Kind != frame.Continuous {
			nLevels := len(c.Levels)
			ft.nb = nLevels
			if c.Kind == frame.Ordinal {
				ft.binMin = make([]float64, nLevels)
				ft.binMax = make([]float64, nLevels)
				for l := range ft.binMin {
					ft.binMin[l] = float64(l)
					ft.binMax[l] = float64(l)
				}
			}
			return nil
		}
		b.buildQuantizer(ft, c)
		return nil
	})
	if err != nil {
		return nil, binView{}, err
	}

	if err := b.codeFeatures(cols); err != nil {
		return nil, binView{}, err
	}

	b.off = make([]int, nf+1)
	maxNb := 0
	for fi := range b.feats {
		b.off[fi+1] = b.off[fi] + b.feats[fi].nb*b.statW
		maxNb = max(maxNb, b.feats[fi].nb)
	}
	b.histLen = b.off[nf]
	f.sizeScratch(maxNb)
	h := b.getHist()
	b.buildHist(0, b.n, h)
	return b, binView{lo: 0, hi: b.n, hist: h}, nil
}

// codeFeatures is the coding pass: every feature's cells become byte
// codes in b.codes, missing cells become missingCode, and continuous
// features collect their per-bin value ranges. Typed categorical
// columns copy their uint8 codes straight through; float64-backed cells
// round-trip through validation. Fans over (feature, chunk) tasks with
// per-task min/max partials merged in task order.
func (b *binned) codeFeatures(cols []*frame.Column) error {
	nf := len(cols)
	bounds := frame.ChunkBounds(b.n, frame.ChunkRows)
	nTasks := nf * len(bounds)
	partMin := make([][]float64, nTasks)
	partMax := make([][]float64, nTasks)
	err := parallel.ForEach(b.ctx, b.cfg.Workers, nTasks, func(ti int) error {
		fi, ci := ti/len(bounds), ti%len(bounds)
		c := cols[fi]
		ft := &b.feats[fi]
		lo, hi := bounds[ci][0], bounds[ci][1]
		dst := b.codes[fi][lo:hi]
		if ft.nb == 0 { // all-missing continuous feature
			for i := range dst {
				dst[i] = missingCode
			}
			return nil
		}
		if c.Kind != frame.Continuous {
			nb := ft.nb
			if cc := c.Codes(); cc != nil {
				// Typed columns already hold byte codes: a straight copy,
				// rewriting out-of-range cells to the missing sentinel —
				// no float64 round-trip.
				for i, cd := range cc[lo:hi] {
					if int(cd) >= nb {
						cd = missingCode
					}
					dst[i] = cd
				}
				return nil
			}
			for i, v := range c.Data[lo:hi] {
				code := uint8(missingCode)
				if isFinite(v) {
					if l := int(v); l >= 0 && l < nb && float64(l) == v {
						code = uint8(l)
					}
				}
				dst[i] = code
			}
			return nil
		}
		gmin := make([]float64, ft.nb)
		gmax := make([]float64, ft.nb)
		for i := range gmin {
			gmin[i] = math.Inf(1)
			gmax[i] = math.Inf(-1)
		}
		for i, v := range c.Data[lo:hi] {
			if !isFinite(v) {
				dst[i] = missingCode
				continue
			}
			g := int((v - ft.lo) * ft.invCell)
			if g < 0 {
				g = 0
			} else if g >= binGrid {
				g = binGrid - 1
			}
			cd := ft.lut[g]
			dst[i] = cd
			if v < gmin[cd] {
				gmin[cd] = v
			}
			if v > gmax[cd] {
				gmax[cd] = v
			}
		}
		partMin[ti], partMax[ti] = gmin, gmax
		return nil
	})
	if err != nil {
		return err
	}
	for ti := 0; ti < nTasks; ti++ {
		if partMin[ti] == nil {
			continue
		}
		ft := &b.feats[ti/len(bounds)]
		for c, v := range partMin[ti] {
			if v < ft.binMin[c] {
				ft.binMin[c] = v
			}
			if partMax[ti][c] > ft.binMax[c] {
				ft.binMax[c] = partMax[ti][c]
			}
		}
	}
	return nil
}

// buildQuantizer derives a feature's byte quantizer from a stride
// sample: sort the sample, spread a binGrid-cell uniform grid over its
// range, and group grid cells into at most Config.Bins bins of roughly
// equal sample mass (every bin holds at least one sample point, hence
// at least one training row).
func (b *binned) buildQuantizer(ft *binFeat, c *frame.Column) {
	stride := b.n / binSample
	if stride < 1 {
		stride = 1
	}
	sample := make([]float64, 0, binSample+1)
	for r := 0; r < b.n; r += stride {
		if !c.Missing(r) {
			sample = append(sample, c.Data[r])
		}
	}
	if len(sample) == 0 {
		ft.nb = 0
		return
	}
	slices.Sort(sample)
	lo, hi := sample[0], sample[len(sample)-1]
	ft.lo = lo
	ft.lut = make([]uint8, binGrid)
	if hi == lo {
		ft.nb = 1
		ft.invCell = 0
	} else {
		ft.invCell = float64(binGrid) / (hi - lo)
		cellCnt := make([]int32, binGrid)
		for _, v := range sample {
			g := int((v - lo) * ft.invCell)
			if g >= binGrid {
				g = binGrid - 1
			}
			cellCnt[g]++
		}
		m := len(sample)
		bins := b.cfg.Bins
		bin, cum, lastCum := 0, 0, 0
		for j := 0; j < binGrid; j++ {
			cum += int(cellCnt[j])
			ft.lut[j] = uint8(bin)
			// Close the bin once it holds its share of the sample mass;
			// cum > lastCum keeps every bin non-empty, cum < m keeps
			// mass on the right of every boundary.
			if bin < bins-1 && cum > lastCum && cum < m && cum*bins >= (bin+1)*m {
				bin++
				lastCum = cum
			}
		}
		ft.nb = bin + 1
	}
	ft.binMin = make([]float64, ft.nb)
	ft.binMax = make([]float64, ft.nb)
	for i := range ft.binMin {
		ft.binMin[i] = math.Inf(1)
		ft.binMax[i] = math.Inf(-1)
	}
}

func (b *binned) search(sc *scratch, fi int, v binView, sp *split) bool {
	ft := &b.feats[fi]
	if ft.nb < 2 {
		return false
	}
	block := v.hist[b.off[fi]:b.off[fi+1]]
	// The finite totals sum every cell in code order, empty ones
	// included: a cell emptied by subtraction can keep a rounding
	// residue in its sums.
	var counts []float64
	if b.cfg.Task == Classification {
		counts = sc.total
		clear(counts)
	}
	var n, sum, sq float64
	for c := 0; c < ft.nb; c++ {
		cell := block[c*b.statW : (c+1)*b.statW]
		if counts == nil {
			n += cell[0]
			sum += cell[1]
			sq += cell[2]
			continue
		}
		for j, v := range cell {
			counts[j] += v
			n += v
		}
	}
	finite := nodeAgg{n: n, sum: sum, sq: sq, counts: counts}
	if b.tree.Features[fi].Kind == frame.Nominal {
		return b.nominalSplit(sc, fi, block, &finite, sp)
	}
	// Continuous and ordinal features scan their occupied bins in value
	// order — for ordinals (one level, one bin) exactly the positions the
	// exact engine's sorted-row scan evaluates.
	occupied := sc.cells[:0]
	for c := 0; c < ft.nb; c++ {
		if b.cellN(block, c) > 0 {
			occupied = append(occupied, c)
		}
	}
	cut, gain := b.scan(sc, block, occupied, &finite)
	if cut < 0 {
		return false
	}
	p, q := occupied[cut], occupied[cut+1]
	*sp = split{feature: fi, bin: p, threshold: (ft.binMax[p] + ft.binMin[q]) / 2, gain: gain}
	b.withAggs(sp, block, occupied[:cut+1], &finite)
	return true
}

func (b *binned) split(n *Node, sp *split, agg nodeAgg, v binView, depth int) (lagg, ragg nodeAgg, lv, rv binView) {
	lagg, ragg = b.childAggs(n, agg, sp)
	// Children that can never split need no row range: their statistics
	// came from the split aggregates, so the partition (and both child
	// histograms) can be skipped outright.
	growL, growR := b.splittable(lagg, depth+1), b.splittable(ragg, depth+1)
	if !growL && !growR {
		b.putHist(v.hist)
		return lagg, ragg, binView{}, binView{}
	}
	mid := b.partition(n, sp, v.lo, v.hi, int(lagg.n))
	lv, rv = binView{lo: v.lo, hi: mid}, binView{lo: mid, hi: v.hi}
	// Build the smaller growing child's histograms; when both grow, the
	// sibling's follow by subtraction, reusing the parent's buffer in
	// place.
	build := func(cv *binView) {
		cv.hist = b.getHist()
		b.buildHist(cv.lo, cv.hi, cv.hist)
	}
	switch {
	case growL && growR && lagg.n <= ragg.n:
		build(&lv)
		subtractHist(v.hist, lv.hist)
		rv.hist = v.hist
	case growL && growR:
		build(&rv)
		subtractHist(v.hist, rv.hist)
		lv.hist = v.hist
	case growL:
		build(&lv)
		b.putHist(v.hist)
	default:
		build(&rv)
		b.putHist(v.hist)
	}
	return lagg, ragg, lv, rv
}

func (b *binned) release(v binView) { b.putHist(v.hist) }

func (b *binned) getHist() []float64 {
	if k := len(b.pool); k > 0 {
		h := b.pool[k-1]
		b.pool = b.pool[:k-1]
		clear(h)
		return h
	}
	return make([]float64, b.histLen)
}

func (b *binned) putHist(h []float64) {
	if h != nil {
		b.pool = append(b.pool, h)
	}
}

func subtractHist(parent, child []float64) {
	for i, v := range child {
		parent[i] -= v
	}
}

// buildHist accumulates per-feature histograms over perm[lo:hi] into h
// (which arrives zeroed). Counts exclude missing cells (available-case
// splitting); the stable partition keeps perm monotone inside the
// range, so the gathers stream forward through the arrays.
//
// Two fan-out shapes, chosen by data shape alone — never by worker
// count, which would change the float accumulation order and break the
// byte-identical-for-every--workers contract:
//
//   - feature-parallel: one task per feature, each accumulating its
//     disjoint block of h directly (no atomics, no merge). Engages for
//     wide frames (>= wideFrameFeatures candidates), where the feature
//     axis alone saturates the pool, and for single-chunk nodes.
//   - chunk x feature-parallel: narrow frames with multi-chunk nodes
//     split each feature's scan on fixed frame.ChunkRows boundaries
//     into disjoint per-chunk slabs, then merge each feature's slabs in
//     chunk order — a fixed association whatever the worker count.
//
// A canceled context leaves some blocks zero or partial; the scans then
// find little and growth stops, and the fit reports ctx.Err().
func (b *binned) buildHist(lo, hi int, h []float64) {
	nf := len(b.codes)
	bounds := frame.ChunkBounds(hi-lo, frame.ChunkRows)
	if nf >= wideFrameFeatures || len(bounds) <= 1 {
		_ = parallel.ForEach(b.ctx, b.cfg.Workers, nf, func(fi int) error {
			o := b.off[fi]
			if width := b.off[fi+1] - o; width > 0 {
				b.histFeature(fi, lo, hi, h[o:o+width])
			}
			return nil
		})
		return
	}
	nc := len(bounds)
	need := nc * b.histLen
	if cap(b.histPart) < need {
		b.histPart = make([]float64, need)
	}
	part := b.histPart[:need]
	clear(part)
	_ = parallel.ForEach(b.ctx, b.cfg.Workers, nf*nc, func(ti int) error {
		fi, ci := ti/nc, ti%nc
		o := b.off[fi]
		if width := b.off[fi+1] - o; width > 0 {
			slab := part[ci*b.histLen+o : ci*b.histLen+o+width]
			b.histFeature(fi, lo+bounds[ci][0], lo+bounds[ci][1], slab)
		}
		return nil
	})
	_ = parallel.ForEach(b.ctx, b.cfg.Workers, nf, func(fi int) error {
		o := b.off[fi]
		width := b.off[fi+1] - o
		if width == 0 {
			return nil
		}
		block := h[o : o+width]
		for ci := 0; ci < nc; ci++ {
			slab := part[ci*b.histLen+o : ci*b.histLen+o+width]
			for j, v := range slab {
				block[j] += v
			}
		}
		return nil
	})
}

// histFeature accumulates feature fi's histogram over perm[lo:hi) into
// block (the feature's statW*nb stats, accumulated in row order).
func (b *binned) histFeature(fi, lo, hi int, block []float64) {
	// Locals: the compiler reloads fields through b on every iteration.
	codes, perm, y := b.codes[fi], b.perm, b.y
	if b.cfg.Task == Regression {
		for i := lo; i < hi; i++ {
			r := perm[i]
			c := codes[r]
			if c == missingCode {
				continue
			}
			yv := y[r]
			p := 3 * int(c)
			block[p]++
			block[p+1] += yv
			block[p+2] += yv * yv
		}
		return
	}
	k := b.nClasses
	for i := lo; i < hi; i++ {
		r := perm[i]
		c := codes[r]
		if c == missingCode {
			continue
		}
		block[int(c)*k+int(y[r])]++
	}
}

// childAggs derives both children's aggregates from the parent's and
// the winning split's finite-case aggregates: missing rows are the
// difference between the parent and the split feature's finite total,
// and they follow the majority (finite) child, matching the exact
// engine's partition. Sets n.DefaultLeft.
func (b *binned) childAggs(n *Node, parent nodeAgg, sp *split) (l, r nodeAgg) {
	n.DefaultLeft = sp.left.n >= sp.finite.n-sp.left.n
	l = sp.left
	l.counts = slices.Clone(sp.left.counts) // nil for regression
	if n.DefaultLeft {
		l.n += parent.n - sp.finite.n
		l.sum += parent.sum - sp.finite.sum
		l.sq += parent.sq - sp.finite.sq
		for j := range l.counts {
			l.counts[j] += parent.counts[j] - sp.finite.counts[j]
		}
	}
	r = nodeAgg{n: parent.n - l.n, sum: parent.sum - l.sum, sq: parent.sq - l.sq}
	if l.counts != nil {
		r.counts = make([]float64, len(l.counts))
		for j := range r.counts {
			r.counts[j] = parent.counts[j] - l.counts[j]
		}
	}
	return l, r
}

// partition stably scatters perm[lo:hi] into [left | right] by byte
// code through a 256-entry route table, so the row scan is branch-free.
// Missing rows (code 255) follow DefaultLeft. Returns the boundary.
//
// Multi-chunk nodes with a real worker pool run a two-pass parallel
// scatter: count each chunk's left rows, prefix-sum the per-chunk
// cursors, then scatter every chunk into its disjoint target ranges.
// Chunk order is row order, so the result is the identical permutation
// the serial scatter produces — which is why this choice alone may
// consult the worker count (unlike histogram shapes, no float
// accumulation is at stake).
func (b *binned) partition(n *Node, sp *split, lo, hi, leftN int) int {
	var tab [256]uint8
	if b.tree.Features[sp.feature].Kind == frame.Nominal {
		for c := 0; c < b.feats[sp.feature].nb; c++ {
			if n.inLeftSet(c) {
				tab[c] = 1
			}
		}
	} else {
		for c := 0; c <= sp.bin; c++ {
			tab[c] = 1
		}
	}
	if n.DefaultLeft {
		tab[missingCode] = 1
	}
	codes, perm, tmp := b.codes[sp.feature], b.perm, b.permTmp
	if bounds := frame.ChunkBounds(hi-lo, frame.ChunkRows); b.workers > 1 && len(bounds) > 1 {
		nc := len(bounds)
		if cap(b.leftCnt) < nc {
			b.leftCnt = make([]int, nc)
		}
		lefts := b.leftCnt[:nc]
		err := parallel.ForEach(b.ctx, b.cfg.Workers, nc, func(ci int) error {
			cnt := 0
			for i := lo + bounds[ci][0]; i < lo+bounds[ci][1]; i++ {
				cnt += int(tab[codes[perm[i]]])
			}
			lefts[ci] = cnt
			return nil
		})
		if err == nil {
			// Cursor bases per chunk: lefts (rights) of earlier chunks
			// land first in the left (right) half.
			leftBefore := 0
			for ci := 0; ci < nc; ci++ {
				lb := leftBefore
				leftBefore += lefts[ci]
				lefts[ci] = lb
			}
			_ = parallel.ForEach(b.ctx, b.cfg.Workers, nc, func(ci int) error {
				l := lo + lefts[ci]
				rr := lo + leftN + (bounds[ci][0] - lefts[ci])
				for i := lo + bounds[ci][0]; i < lo+bounds[ci][1]; i++ {
					row := perm[i]
					t := int(tab[codes[row]])
					mask := -t // t==1: all ones selects the left cursor
					pos := (l & mask) | (rr &^ mask)
					tmp[pos] = row
					l += t
					rr += 1 - t
				}
				return nil
			})
			copy(perm[lo:hi], tmp[lo:hi])
			return lo + leftN
		}
		// Canceled mid-count: fall through to the serial scatter, whose
		// result is valid regardless; growth stops at the next checkpoint.
	}
	l, rr := lo, lo+leftN
	for i := lo; i < hi; i++ {
		row := perm[i]
		t := int(tab[codes[row]])
		mask := -t // t==1: all ones selects the left cursor
		pos := (l & mask) | (rr &^ mask)
		tmp[pos] = row
		l += t
		rr += 1 - t
	}
	copy(perm[lo:hi], tmp[lo:hi])
	return lo + leftN
}

package frame

// ChunkRows is the canonical chunk granularity: column scans that fan
// out over internal/parallel split on fixed ChunkRows boundaries, never
// on the worker count, so per-chunk partial results can be merged in
// chunk order and the reduction is byte-identical for every -workers.
const ChunkRows = 64 * 1024

// ChunkBounds splits [0, n) into [lo, hi) ranges of at most chunkRows
// rows (ChunkRows when chunkRows <= 0), in order. The fixed split is the
// determinism contract: fan the ranges across any number of workers,
// slice each column's storage to them, and merge per-range results in
// slice order.
func ChunkBounds(n, chunkRows int) [][2]int {
	if n <= 0 {
		return nil
	}
	if chunkRows <= 0 {
		chunkRows = ChunkRows
	}
	out := make([][2]int, 0, (n+chunkRows-1)/chunkRows)
	for lo := 0; lo < n; lo += chunkRows {
		hi := lo + chunkRows
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

package analysis

import "slices"

// shardLog is one worker's append log: Observe appends one entry per
// record and never looks anything up, so the hot path is an amortized
// append with no hashing, no interning and no per-record allocation.
// The padding keeps neighbouring workers' slice headers, which every
// append rewrites, off a shared cache line.
type shardLog[T any] struct {
	log []T
	_   [40]byte
}

// sortReduce concatenates the shard logs, sorts the entries with
// compare and folds each run of adjacent equal keys into its first
// entry: fold(acc, x) adds x into acc and reports true when x has acc's
// key, false to start a new output entry at x. compare must order
// entries by key, so every run of equal keys is contiguous after the
// sort. The result depends only on the multiset of logged entries —
// never on which worker logged them or in what order — which is what
// makes the fused pass partition-independent: the sort is unstable, but
// entries of one key are summed with commutative integer additions.
func sortReduce[T any](shards []shardLog[T], compare func(a, b T) int, fold func(acc, x *T) bool) []T {
	n := 0
	for i := range shards {
		n += len(shards[i].log)
	}
	all := make([]T, 0, n)
	for i := range shards {
		all = append(all, shards[i].log...)
	}
	slices.SortFunc(all, compare)
	out := all[:0]
	for i := range all {
		if k := len(out); k > 0 && fold(&out[k-1], &all[i]) {
			continue
		}
		out = append(out, all[i])
	}
	return out
}
